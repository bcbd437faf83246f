// Op accounting for the benchmark loop: every op is timed, checked and
// recorded, and no op is ever dropped from the sample. An op fails when its
// call throws, when its output check throws, or when the check returns
// false; a failed op keeps its sample (flagged not ok) and counts in
// failed().
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct OpSample {
  double ms = 0.0;      // host wall time of the timed call alone
  double cpu_ms = 0.0;  // CPU time all threads of the process spent in it
  bool ok = false;
};

class OpLedger {
 public:
  // Times `call()` (and only it), then validates its result with
  // `check(result)` outside the timed interval. Returns whether the op
  // succeeded; on success the result is moved into `*out` when given.
  template <typename Call, typename Check, typename Result>
  bool run(const std::string& type, Call&& call, Check&& check, Result* out) {
    ++attempted_;
    const Stamp t0 = Stamp::now();
    OpSample sample;
    bool timed = false;
    const auto stop = [&] {
      if (!timed) sample = t0.elapsed();
      timed = true;
    };
    try {
      auto result = call();
      stop();
      if (!check(result)) {
        fail(type, sample, "output check failed");
        return false;
      }
      sample.ok = true;
      samples_[type].push_back(sample);
      if (out) *out = std::move(result);
      return true;
    } catch (const std::exception& e) {
      stop();
      fail(type, sample, e.what());
    } catch (...) {
      stop();
      fail(type, sample, "unknown exception");
    }
    return false;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
  }
  // Samples per op type, in the order the ops ran.
  const std::map<std::string, std::vector<OpSample>>& samples() const {
    return samples_;
  }
  std::size_t count(const std::string& type) const {
    const auto it = samples_.find(type);
    return it == samples_.end() ? 0 : it->second.size();
  }
  // One message per failed op, "<type>: <reason>".
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  // Wall clock and process CPU clock read together. The CPU clock counts
  // every thread of the process and, on a kernel with paravirtual steal
  // accounting, leaves out time the hypervisor gave to other guests.
  struct Stamp {
    std::chrono::steady_clock::time_point wall;
    double cpu_s = 0.0;
    static Stamp now() {
      timespec ts{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return {std::chrono::steady_clock::now(),
              static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec};
    }
    OpSample elapsed() const {
      const Stamp t = now();
      OpSample s;
      s.ms = std::chrono::duration<double, std::milli>(t.wall - wall).count();
      s.cpu_ms = 1e3 * (t.cpu_s - cpu_s);
      return s;
    }
  };

  void fail(const std::string& type, OpSample sample, const std::string& why) {
    ++failed_;
    sample.ok = false;
    samples_[type].push_back(sample);
    errors_.push_back(type + ": " + why);
  }

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::vector<OpSample>> samples_;
  std::vector<std::string> errors_;
};

}  // namespace e2e
