// e2e_bench: one closed-loop checkpoint/restart + region-serving run.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   e2e_bench --fingerprint
//
// Each step writes one seeded field through run_streamed_compress_write,
// restarts it through run_streamed_read, then issues the workload's region
// queries through run_streamed_read_region. Every op is timed alone and
// checked (the output oracle); steps repeat until --seconds have passed
// and every op type has kMinSamples samples. With --trace 1 each step
// additionally replays its ops layer by layer under spans (replay.h) and
// holds the replay to byte/bit parity with the pipeline.
//
// The raw per-op samples, per-step modeled values and per-layer values go
// to stdout as one JSON object; run.py turns them into the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "compressors/chunking.h"
#include "compressors/zone.h"
#include "core/pipeline.h"
#include "energy/cpu_model.h"
#include "energy/powercap_monitor.h"
#include "fingerprint.h"
#include "io/io_tool.h"
#include "ledger.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"
#include "replay.h"
#include "trace.h"
#include "workload.h"

using namespace eblcio;
using namespace e2e;

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 3;
// Samples each op type needs before an untraced run may stop, so p90 has
// ten samples beyond it.
constexpr std::size_t kMinSamples = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Modeled joules to write `field` raw through the same container, transport
// and PFS config as the compressed pipeline, then read it back — the
// "Original" bar of the paper's Fig. 11. Charged the way the pipeline
// charges: container prep as one-core compute, wire time as I/O.
double raw_round_trip_j(const Field& field, const WorkloadSpec& w) {
  PfsSimulator pfs;
  const PipelineConfig pc = pipeline_config(w);
  const TransportConfig tc = stream_config(w).transport;
  PowercapMonitor monitor(cpu_model(pc.cpu));
  IoTool& tool = io_tool(pc.io_library);
  const auto slabs = split_slabs(field, w.slabs);
  const auto zones = zone_extents(field.shape().dim(0), w.slabs);
  double joules = 0.0;
  const auto charge = [&](const IoCost& c) {
    joules += monitor.record_compute("raw-prep", c.prep_seconds, 1).joules;
    joules += monitor.record_io("raw-io", c.transfer_seconds).joules;
  };
  const std::string path = "/pfs/raw";
  {
    ChunkedDatasetMeta meta;
    meta.name = field.name();
    meta.dims = field.shape().dims_vector();
    meta.attributes["content"] = "raw";
    auto out = tool.open_zoned(pfs, path, meta);
    out.enable_transport(tc);
    charge(out.open_cost());
    for (std::size_t i = 0; i < slabs.size(); ++i)
      charge(out.append_zone(slabs[i].bytes(), zones[i], self_inclusive_clients(pfs)));
    charge(out.close(self_inclusive_clients(pfs)));
    double wire_s = 0.0;
    for (const SectorRecord& s : out.transport()->records())
      wire_s += s.rpc_s + s.xfer_s;
    joules += monitor.record_io("raw-wire", wire_s).joules;
  }
  auto reader = tool.open_chunked_reader(pfs, path, self_inclusive_clients(pfs));
  reader.enable_transport(tc);
  charge(reader.open_cost());
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    IoCost c;
    Bytes b = reader.await_chunk(reader.prefetch_chunk(i), i, &c);
    charge(c);
    const auto want = slabs[i].bytes();
    if (b.size() != want.size() ||
        !std::equal(b.begin(), b.end(), want.begin()))
      throw std::runtime_error("raw round trip returned different bytes");
    BufferPool::global().release(std::move(b));
  }
  return joules;
}

// What one step works on: input `id` = (base field, rotation).
struct StepInput {
  Field field;
  std::vector<Region> queries;
  std::string path;         // pipeline container
  std::string traced_path;  // replay container
  bool distinct = false;    // first step on this input: reference checks
                            // and deterministic metrics are taken
};

// --- raw JSON output -------------------------------------------------------

class JsonOut {
 public:
  JsonOut() { os_.precision(17); }
  void key(const std::string& k) {
    os_ << (first_ ? "" : ", ") << '"' << k << "\": ";
    first_ = false;
  }
  void num(const std::string& k, double v) {
    key(k);
    os_ << v;
  }
  void raw(const std::string& k, const std::string& json) {
    key(k);
    os_ << json;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << (c == '\n' ? ' ' : c);
    }
    os_ << '"';
  }
  void arr(const std::string& k, const std::vector<double>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? ", " : "") << v[i];
    os_ << ']';
  }
  std::string done() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string json_map(const std::map<std::string, std::vector<double>>& m) {
  JsonOut j;
  for (const auto& [k, v] : m) j.arr(k, v);
  return j.done();
}

// Everything one run records; serialized once at the end.
struct RunRecord {
  std::vector<double> setup_s;
  // Per step (modeled): platform seconds of all its ops, round-trip joules
  // per GB of original data, raw/compressed round-trip joules.
  std::map<std::string, std::vector<double>> steps;
  // Per step, traced runs only: one value per per-layer metric.
  std::map<std::string, std::vector<double>> layers;
  // Traced runs: per op type, summed wall / layer / unattributed seconds.
  std::map<std::string, std::vector<double>> closure;
  double closure_max_err = 0.0;
  std::size_t parity_failures = 0;
  // Deterministic, from the first step on every input.
  std::size_t orig_bytes = 0, comp_bytes = 0;
  std::vector<double> psnr;
  double fetched_bytes = 0.0, share_bytes = 0.0;
};

// Executor and buffer-pool counters around one step's pipeline ops.
struct HostCounters {
  ExecutorStats ex;
  BufferPool::Stats pool;
  static HostCounters now() {
    return {Executor::global().stats(), BufferPool::global().stats()};
  }
};

struct PipelineOps {
  bool write_ok = false, read_ok = false;
  StreamWriteRecord write;
  StreamReadRecord read;
  std::vector<RegionReadRecord> queries;  // successful ones, in order
  double ms = 0.0;  // summed timed wall of the step's ops
};

class Runner {
 public:
  Runner(const WorkloadSpec& w, const Args& a)
      : w_(w), args_(a),  pc_(pipeline_config(w)),
        sc_(stream_config(w)) {}

  void setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      bases_.clear();
      for (int k = 0; k < w_.fields; ++k) bases_.push_back(base_field(w_, k));
      // Raw bytes cost the same for every input of one shape.
      raw_j_ = raw_round_trip_j(bases_[0], w_);
      // Warm-up: one untimed round trip fills the buffer pool and starts
      // the executor's workers.
      const auto wr = run_streamed_compress_write(bases_[0], pc_, pfs_, sc_);
      run_streamed_read(pfs_, wr.path, pc_, sc_);
      rec_.setup_s.push_back(since_s(t0));
    }
  }

  void run() {
    const auto t0 = Clock::now();
    const double cap_s = args_.seconds + 60.0;
    // Every input is visited once before any repeats, so the
    // deterministic metrics always cover the same inputs.
    const std::size_t inputs =
        static_cast<std::size_t>(w_.fields) *
        static_cast<std::size_t>(w_.rotations);
    const std::size_t min_steps =
        args_.trace ? inputs : std::max(inputs, kMinSamples);
    const std::size_t min_queries = args_.trace ? 0 : kMinSamples;
    for (std::size_t step = 0;; ++step) {
      const double t = since_s(t0);
      const bool enough = step >= min_steps &&
                          ledger_.count("query") >= min_queries;
      if ((t >= args_.seconds && enough) || t >= cap_s) break;
      const std::size_t k = step % static_cast<std::size_t>(w_.fields);
      const int id = static_cast<int>(step % inputs);
      StepInput in;
      in.field = rolled_field(bases_[k], args_.seed, id);
      in.queries = make_queries(w_, args_.seed, id);
      in.path = "/pfs/" + in.field.name() + ".eblc.stream.HDF5";
      in.traced_path = "/pfs/traced/" + in.field.name();
      in.distinct = step < inputs;
      const HostCounters before = HostCounters::now();
      PipelineOps ops = pipeline_step(in);
      const HostCounters after = HostCounters::now();
      record_step(in, ops);
      if (args_.trace) traced_step(in, ops, before, after);
    }
    measured_s_ = since_s(t0);
  }

  bool write_trace() const {
    return args_.trace_out.empty() || tracer_.write_chrome_json(args_.trace_out);
  }

  std::string to_json() const {
    JsonOut j;
    j.str("workload", w_.name);
    j.num("seed", static_cast<double>(args_.seed));
    j.num("trace", args_.trace);
    j.arr("setup_s", rec_.setup_s);
    j.num("inputs", static_cast<double>(w_.fields) * w_.rotations);
    j.num("measured_s", measured_s_);
    j.num("attempted", static_cast<double>(ledger_.attempted()));
    j.num("failed", static_cast<double>(ledger_.failed()));
    std::ostringstream errs;
    for (std::size_t i = 0; i < ledger_.errors().size() && i < 5; ++i)
      errs << ledger_.errors()[i] << "; ";
    j.str("errors", errs.str());
    std::map<std::string, std::vector<double>> ms, cpu_ms, ok;
    for (const auto& [type, samples] : ledger_.samples())
      for (const OpSample& s : samples) {
        ms[type].push_back(s.ms);
        cpu_ms[type].push_back(s.cpu_ms);
        ok[type].push_back(s.ok ? 1.0 : 0.0);
      }
    j.raw("samples_ms", json_map(ms));
    j.raw("samples_cpu_ms", json_map(cpu_ms));
    j.raw("samples_ok", json_map(ok));
    j.raw("steps", json_map(rec_.steps));
    j.num("ratio", static_cast<double>(rec_.orig_bytes) /
                       static_cast<double>(std::max<std::size_t>(
                           rec_.comp_bytes, 1)));
    double psnr = 0.0;
    for (const double p : rec_.psnr) psnr += p;
    j.num("psnr_db", rec_.psnr.empty() ? 0.0 : psnr / rec_.psnr.size());
    j.num("fetch_amp", rec_.share_bytes > 0
                           ? rec_.fetched_bytes / rec_.share_bytes
                           : 0.0);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    if (args_.trace) {
      j.raw("layers", json_map(rec_.layers));
      j.raw("closure", json_map(rec_.closure));
      j.num("closure_max_err", rec_.closure_max_err);
      j.num("parity_failures", static_cast<double>(rec_.parity_failures));
    }
    return j.done();
  }

  const OpLedger& ledger() const { return ledger_; }

 private:
  PipelineOps pipeline_step(const StepInput& in) {
    PipelineOps ops;
    ops.write_ok = ledger_.run(
        "write",
        [&] { return run_streamed_compress_write(in.field, pc_, pfs_, sc_); },
        [&](const StreamWriteRecord& r) {
          return r.path == in.path && r.compressed_bytes > 0 &&
                 pfs_.file_size(in.path) == r.compressed_bytes;
        },
        &ops.write);
    ops.ms += last_ms("write");
    ops.read_ok = ledger_.run(
        "read", [&] { return run_streamed_read(pfs_, in.path, pc_, sc_); },
        [&](const StreamReadRecord& r) {
          if (!check_value_range_bound(in.field, r.field, w_.error_bound))
            return false;
          return !in.distinct ||
                 same_field(r.field,
                            read_chunked_field(pfs_, in.path, pc_.io_library));
        },
        &ops.read);
    ops.ms += last_ms("read");
    for (const Region& q : in.queries) {
      RegionReadRecord rr;
      const bool ok = ledger_.run(
          "query",
          [&] {
            return run_streamed_read_region(pfs_, in.path, q, pc_, sc_);
          },
          [&](const RegionReadRecord& r) {
            // The region must equal the same box of the step's restart
            // read, which itself passed the error bound.
            if (ops.read_ok &&
                !same_field(r.field, extract_region(ops.read.field, q)))
              return false;
            return (ops.read_ok && !in.distinct) ||
                   same_field(r.field, read_region_reference(
                                           pfs_, in.path, q, pc_.io_library));
          },
          &rr);
      ops.ms += last_ms("query");
      if (ok) ops.queries.push_back(std::move(rr));
    }
    return ops;
  }

  double last_ms(const std::string& type) const {
    return ledger_.samples().at(type).back().ms;
  }

  void record_step(const StepInput& in, const PipelineOps& ops) {
    if (!ops.write_ok || !ops.read_ok) return;
    const StreamWriteRecord& wr = ops.write;
    const StreamReadRecord& rr = ops.read;
    double modeled = wr.streamed_total_s + rr.streamed_total_s;
    for (const auto& q : ops.queries) modeled += q.streamed_total_s;
    const double joules =
        wr.compress_j + wr.write_j + rr.fetch_j + rr.decompress_j;
    rec_.steps["modeled_op_s"].push_back(modeled);
    rec_.steps["modeled_j_per_gb"].push_back(
        joules / (static_cast<double>(wr.original_bytes) / 1e9));
    rec_.steps["energy_saving_x"].push_back(raw_j_ / joules);
    if (!in.distinct) return;
    rec_.orig_bytes += wr.original_bytes;
    rec_.comp_bytes += wr.compressed_bytes;
    rec_.psnr.push_back(compute_error_stats(in.field, rr.field).psnr_db);
    const double n = static_cast<double>(in.field.num_elements());
    for (const auto& q : ops.queries) {
      rec_.fetched_bytes += static_cast<double>(q.bytes_fetched);
      rec_.share_bytes += static_cast<double>(q.region.num_elements()) / n *
                          static_cast<double>(q.container_bytes);
    }
  }

  // Replays the step's ops under spans, checks parity with the pipeline,
  // and records one value per per-layer metric.
  void traced_step(const StepInput& in, const PipelineOps& ops,
                   const HostCounters& before, const HostCounters& after) {
    if (!ops.write_ok || !ops.read_ok) return;
    CodecCounters cc;
    WireCounters wc;
    LayerSeconds self{};
    double traced_ms = 0.0;
    const auto account = [&](const std::string& type, const ReplayResult& r) {
      const LayerSeconds s = tracer_.op_self_seconds(r.root);
      const double wall = tracer_.seconds(r.root);
      double sum = 0.0;
      for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
        self[l] += s[l];
        sum += s[l];
      }
      const double attributed = sum - s[static_cast<int>(Layer::kOp)];
      rec_.closure[type + ".wall_s"].push_back(wall);
      rec_.closure[type + ".layers_s"].push_back(attributed);
      rec_.closure[type + ".unattributed_s"].push_back(
          s[static_cast<int>(Layer::kOp)]);
      rec_.closure_max_err =
          std::max(rec_.closure_max_err, std::abs(sum - wall) / wall);
    };
    const auto parity = [&](bool ok) {
      if (!ok) ++rec_.parity_failures;
      return ok;
    };

    ReplayResult rw, rr;
    const bool w_ok = ledger_.run(
        "traced_write",
        [&] { return traced_write(tracer_, in.field, w_, pfs_, in.traced_path,
                                  cc, wc); },
        [&](const ReplayResult&) {
          return parity(pfs_.read_file(in.traced_path) ==
                        pfs_.read_file(in.path));
        },
        &rw);
    if (!w_ok) return;
    account("write", rw);
    traced_ms += last_ms("traced_write");
    const bool r_ok = ledger_.run(
        "traced_read",
        [&] { return traced_read(tracer_, pfs_, in.traced_path, wc); },
        [&](const ReplayResult& r) {
          return parity(same_field(r.field, ops.read.field));
        },
        &rr);
    if (!r_ok) return;
    account("read", rr);
    traced_ms += last_ms("traced_read");
    double zones = 0.0, fetched = 0.0;
    for (std::size_t i = 0; i < ops.queries.size(); ++i) {
      ReplayResult rq;
      const RegionReadRecord& want = ops.queries[i];
      const bool q_ok = ledger_.run(
          "traced_query",
          [&] {
            return traced_query(tracer_, pfs_, in.traced_path, want.region,
                                wc);
          },
          [&](const ReplayResult& r) {
            return parity(same_field(r.field, want.field));
          },
          &rq);
      if (!q_ok) return;
      account("query", rq);
      traced_ms += last_ms("traced_query");
      zones += static_cast<double>(rq.zones);
      fetched += static_cast<double>(rq.fetched_bytes);
    }
    const double nq = std::max<double>(1.0, ops.queries.size());

    auto& L = rec_.layers;
    const auto layer = [&](Layer l) { return self[static_cast<int>(l)]; };
    L["compressors.predict_s"].push_back(layer(Layer::kPredict));
    L["compressors.reconstruct_s"].push_back(layer(Layer::kReconstruct));
    L["compressors.framing_s"].push_back(layer(Layer::kFraming));
    L["compressors.chunking_s"].push_back(layer(Layer::kChunking));
    L["codec.huffman_encode_s"].push_back(layer(Layer::kHuffmanEncode));
    L["codec.huffman_decode_s"].push_back(layer(Layer::kHuffmanDecode));
    L["codec.huffman_bits_per_code"].push_back(
        cc.codes ? 8.0 * static_cast<double>(cc.huff_bytes) /
                       static_cast<double>(cc.codes)
                 : 0.0);
    L["codec.lz_compress_s"].push_back(layer(Layer::kLzCompress));
    L["codec.lz_decompress_s"].push_back(layer(Layer::kLzDecompress));
    L["codec.lz_kept_frac"].push_back(
        cc.lz_runs ? static_cast<double>(cc.lz_kept) / cc.lz_runs : 0.0);
    L["codec.lz_wasted_s"].push_back(cc.lz_wasted_s);
    L["io.container_write_s"].push_back(layer(Layer::kContainerWrite));
    L["io.container_read_s"].push_back(layer(Layer::kContainerRead));
    L["io.transport_sectors"].push_back(static_cast<double>(wc.sectors));
    L["io.transport_credit_stalls"].push_back(
        static_cast<double>(wc.credit_stalls));
    L["io.transport_mean_inflight"].push_back(
        ops.write.transport.mean_inflight);
    double stall_s = ops.write.transport.credit_stall_s +
                     ops.read.transport.credit_stall_s;
    double overlap_s =
        ops.write.overlap_saving_s() + ops.read.overlap_saving_s();
    for (const auto& q : ops.queries) {
      stall_s += q.transport.credit_stall_s;
      overlap_s += q.overlap_saving_s();
    }
    L["io.transport_stall_s"].push_back(stall_s);
    L["io.pfs_wire_s"].push_back(wc.rpc_s + wc.xfer_s);
    L["io.pfs_rpc_s"].push_back(wc.rpc_s);
    L["io.pfs_xfer_s"].push_back(wc.xfer_s);
    L["io.pfs_bytes_written"].push_back(static_cast<double>(wc.bytes_written));
    L["io.pfs_bytes_read"].push_back(static_cast<double>(wc.bytes_read));
    L["io.zones_decoded_per_query"].push_back(zones / nq);
    L["io.fetch_bytes_per_query"].push_back(fetched / nq);

    const ExecutorStats& e0 = before.ex;
    const ExecutorStats& e1 = after.ex;
    L["parallel.executor_tasks"].push_back(
        static_cast<double>(e1.tasks_completed - e0.tasks_completed));
    L["parallel.executor_steals"].push_back(
        static_cast<double>(e1.steals - e0.steals));
    L["parallel.executor_help_runs"].push_back(
        static_cast<double>(e1.help_runs - e0.help_runs));
    L["parallel.executor_submit_waits"].push_back(
        static_cast<double>(e1.submit_waits - e0.submit_waits));
    L["parallel.executor_task_s"].push_back(e1.task_seconds - e0.task_seconds);
    const auto acquires = after.pool.acquires - before.pool.acquires;
    L["common.pool_hit_frac"].push_back(
        acquires ? static_cast<double>(after.pool.hits - before.pool.hits) /
                       static_cast<double>(acquires)
                 : 0.0);
    L["common.pool_retained_mb"].push_back(
        static_cast<double>(after.pool.retained_bytes) / 1e6);

    L["energy.compress_j"].push_back(ops.write.compress_j);
    L["energy.write_j"].push_back(ops.write.write_j);
    L["energy.fetch_j"].push_back(ops.read.fetch_j);
    L["energy.decompress_j"].push_back(ops.read.decompress_j);
    L["energy.raw_io_j"].push_back(raw_j_);

    L["core.pipeline_overlap_s"].push_back(overlap_s);
    L["core.unattributed_s"].push_back(layer(Layer::kOp));
    L["core.trace_overhead_s"].push_back(1e-3 * (traced_ms - ops.ms));
  }

  const WorkloadSpec& w_;
  Args args_;
  PfsSimulator pfs_;
  PipelineConfig pc_;
  StreamConfig sc_;
  std::vector<Field> bases_;
  double raw_j_ = 0.0;
  OpLedger ledger_;
  Tracer tracer_;
  RunRecord rec_;
  double measured_s_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    // The fingerprint runs in its own process so its copy buffers never
    // count in the benchmark's peak RSS.
    if (argc == 2 && std::string(argv[1]) == "--fingerprint") {
      std::cout << to_json(measure_fingerprint()) << std::endl;
      return 0;
    }
    const Args args = parse_args(argc, argv);
    const WorkloadSpec& w = workload(args.workload);
    Runner runner(w, args);
    runner.setup();
    runner.run();
    if (!runner.write_trace())
      std::cerr << "e2e_bench: could not write " << args.trace_out << "\n";
    std::cout << runner.to_json() << std::endl;
    return runner.ledger().failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
