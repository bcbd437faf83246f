// In-memory span recorder for the traced (per-layer) benchmark run.
//
// Every span carries a name, the layer it is charged to, its start and end
// on the steady clock, the span that encloses it and the op it belongs to.
// Spans are kept in memory for the whole run and written once at the end
// as Chrome trace-event JSON. A span's *self time* is its duration minus
// the durations of its direct children; summing self times per layer over
// one op, plus the op span's own self time (the unattributed column), gives
// the op's wall time exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// The layers the benchmark attributes host time to. kOp is the root span
// of one op; its self time is the time no layer claims.
enum class Layer : int {
  kOp = 0,
  kPredict,         // interp_compress / block_compress
  kReconstruct,     // interp_decompress / block_decompress
  kHuffmanEncode,
  kHuffmanDecode,
  kLzCompress,
  kLzDecompress,
  kFraming,         // codec call minus its replayed sub-calls
  kChunking,        // split_slabs / merge_slabs / scatter_zone_into_region
  kContainerWrite,  // ChunkWriter open / append_zone / close
  kContainerRead,   // open_chunked_reader / prefetch / await
  kCount
};

inline const char* layer_name(Layer l) {
  static constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
      kNames = {"op",          "predict",      "reconstruct",
                "huffman_enc", "huffman_dec",  "lz_compress",
                "lz_decomp",   "framing",      "chunking",
                "container_w", "container_r"};
  return kNames[static_cast<int>(l)];
}

using LayerSeconds = std::array<double, static_cast<int>(Layer::kCount)>;

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kOp;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t child_ns = 0;  // summed durations of direct children
  int parent = -1;            // index into Tracer::spans(), -1 for roots
  int op = -1;                // op id shared by every span of one op
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name, Layer layer) {
    SpanRecord s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    if (s.parent < 0) {
      s.op = next_op_++;
    } else {
      s.op = spans_[static_cast<std::size_t>(s.parent)].op;
    }
    s.t0_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void end(int id) {
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.t1_ns = now_ns();
    stack_.pop_back();
    if (s.parent >= 0)
      spans_[static_cast<std::size_t>(s.parent)].child_ns += s.t1_ns - s.t0_ns;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time per layer of every span of root span `root` (the op), in
  // seconds. The op span's own self time lands in Layer::kOp.
  LayerSeconds op_self_seconds(int root) const {
    LayerSeconds out{};
    const int op = spans_[static_cast<std::size_t>(root)].op;
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
      const SpanRecord& s = spans_[i];
      if (s.op != op) break;
      out[static_cast<int>(s.layer)] +=
          1e-9 * static_cast<double>(s.t1_ns - s.t0_ns - s.child_ns);
    }
    return out;
  }

  double seconds(int id) const {
    const SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    return 1e-9 * static_cast<double>(s.t1_ns - s.t0_ns);
  }

  // Writes every span as a Chrome trace-event "X" event (timestamps in
  // microseconds since the tracer was created). Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int next_op_ = 0;
};

// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Layer layer) : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin(name, layer);
  }
  ~Span() {
    if (tracer_) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace e2e
