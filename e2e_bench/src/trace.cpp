#include "trace.h"

#include <cstdio>
#include <memory>

namespace e2e {

bool Tracer::write_chrome_json(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %d, "
                 "\"end_us\": %.3f}}",
                 i ? ",\n" : "", s.name, layer_name(s.layer), 1e-3 * s.t0_ns,
                 1e-3 * (s.t1_ns - s.t0_ns), i, s.parent, s.op,
                 1e-3 * s.t1_ns);
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace e2e
