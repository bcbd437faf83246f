// Host fingerprint recorded with every result: what machine and build the
// numbers came from. Recorded only; no metric is normalized by it.
#pragma once

#include <string>

namespace e2e {

struct HostFingerprint {
  int nproc = 0;          // CPUs this process may run on
  int hw_threads = 0;     // std::thread::hardware_concurrency()
  std::string compiler;
  std::string cxx_flags;  // flags the library and benchmark built with
  std::string build_type;
  double memcpy_gbps = 0.0;       // median of 5 copies of 64 MiB
  double scalar_mops = 0.0;       // dependent FP multiply-add chain, Mop/s
};

HostFingerprint measure_fingerprint();

// The fingerprint as one JSON object.
std::string to_json(const HostFingerprint& fp);

}  // namespace e2e
