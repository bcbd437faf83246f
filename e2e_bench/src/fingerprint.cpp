#include "fingerprint.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "build_info.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double memcpy_gbps() {
  const std::size_t n = std::size_t{64} << 20;
  std::vector<char> src(n, 1), dst(n, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), n);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(n) / s / 1e9);
  }
  volatile char sink = dst[n / 2];
  (void)sink;
  return median(rates);
}

double scalar_mops() {
  const long iters = 20'000'000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    volatile double seed = 1.0 + rep * 1e-9;
    double x = seed;
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) x = x * 0.999999999 + 1e-9;
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    volatile double sink = x;
    (void)sink;
    rates.push_back(static_cast<double>(iters) / s / 1e6);
  }
  return median(rates);
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

HostFingerprint measure_fingerprint() {
  HostFingerprint fp;
  cpu_set_t set;
  CPU_ZERO(&set);
  fp.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                          : 0;
  fp.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  fp.compiler = __VERSION__;
  fp.cxx_flags = E2E_CXX_FLAGS " (library adds -fno-math-errno "
                "-fno-trapping-math)";
  fp.build_type = E2E_BUILD_TYPE;
  fp.memcpy_gbps = memcpy_gbps();
  fp.scalar_mops = scalar_mops();
  return fp;
}

std::string to_json(const HostFingerprint& fp) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"nproc\": " << fp.nproc << ", \"hw_threads\": " << fp.hw_threads
     << ", \"compiler\": \"" << escape(fp.compiler) << "\", \"cxx_flags\": \""
     << escape(fp.cxx_flags) << "\", \"build_type\": \""
     << escape(fp.build_type) << "\", \"memcpy_gbps\": " << fp.memcpy_gbps
     << ", \"scalar_mops\": " << fp.scalar_mops << "}";
  return os.str();
}

}  // namespace e2e
