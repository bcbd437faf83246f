#include "core/pipeline.h"

#include <algorithm>

#include "common/buffer_pool.h"
#include "common/timer.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "io/io_tool.h"
#include "parallel/executor.h"

namespace eblcio {

CompressionRecord run_compression(const Field& field,
                                  const PipelineConfig& config,
                                  Bytes* blob_out) {
  Compressor& comp = compressor(config.codec);
  const CpuModel& cpu = cpu_model(config.cpu);

  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = config.error_bound;
  opt.threads = config.threads;

  CompressionRecord rec;
  rec.codec = comp.name();
  rec.error_bound = config.error_bound;
  rec.threads = config.threads;
  rec.original_bytes = field.size_bytes();

  Bytes blob;
  rec.host_compress_s = timed_s([&] { blob = comp.compress(field, opt); });
  rec.compressed_bytes = blob.size();
  rec.ratio = static_cast<double>(rec.original_bytes) /
              static_cast<double>(blob.size());

  Field recon;
  const int decomp_threads =
      comp.caps().parallel_decompress ? config.threads : 1;
  rec.host_decompress_s =
      timed_s([&] { recon = comp.decompress(blob, decomp_threads); });
  rec.quality = compute_error_stats(field, recon);

  PowercapMonitor monitor(cpu);
  const auto ec =
      monitor.record_compute("compress", rec.host_compress_s, config.threads);
  const auto ed = monitor.record_compute("decompress", rec.host_decompress_s,
                                         decomp_threads);
  rec.compress_s = ec.seconds;
  rec.compress_j = ec.joules;
  rec.decompress_s = ed.seconds;
  rec.decompress_j = ed.joules;
  if (blob_out) *blob_out = std::move(blob);
  return rec;
}

WriteRecord run_compress_write(const Field& field,
                               const PipelineConfig& config,
                               PfsSimulator& pfs) {
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& io = io_tool(config.io_library);

  WriteRecord rec;
  rec.io_library = io.name();
  Bytes blob;
  rec.compression = run_compression(field, config, &blob);

  const std::string base = "/pfs/" + field.name();
  PowercapMonitor monitor(cpu);

  const IoCost wc = io.write_blob(pfs, base + ".eblc." + io.name(),
                                  field.name(), blob);
  const auto wc_prep =
      monitor.record_compute("write-prep", wc.prep_seconds, 1);
  const auto wc_io = monitor.record_io("write", wc.transfer_seconds);
  rec.write_compressed_s = wc_prep.seconds + wc_io.seconds;
  rec.write_compressed_j = wc_prep.joules + wc_io.joules;

  const IoCost wo = io.write_field(pfs, base + ".orig." + io.name(), field);
  const auto wo_prep =
      monitor.record_compute("write-orig-prep", wo.prep_seconds, 1);
  const auto wo_io = monitor.record_io("write-orig", wo.transfer_seconds);
  rec.write_original_s = wo_prep.seconds + wo_io.seconds;
  rec.write_original_j = wo_prep.joules + wo_io.joules;

  TradeoffMeasurement m;
  m.compress_seconds = rec.compression.compress_s;
  m.compress_joules = rec.compression.compress_j;
  m.write_compressed_seconds = rec.write_compressed_s;
  m.write_compressed_joules = rec.write_compressed_j;
  m.write_original_seconds = rec.write_original_s;
  m.write_original_joules = rec.write_original_j;
  m.psnr_db = rec.compression.quality.psnr_db;
  rec.verdict = evaluate_tradeoff(m, config.psnr_min_db);
  return rec;
}

// --- Streaming (chunked) experiments ---------------------------------------

namespace {

// One chunk crossing a runner's producer/consumer channel: its ordinal in
// the run and either its bytes (a compressed slab, or a blocking fetch with
// what it cost) or the transport message handle the consumer awaits.
struct ChunkItem {
  std::size_t ordinal = 0;
  std::size_t handle = 0;
  Bytes blob;
  IoCost cost;
};

// Closes the channel on every exit path so neither stage can wedge the
// other when one of them throws (a blocked push/pop returns once closed).
struct ChannelCloser {
  BoundedChannel<ChunkItem>* channel;
  ~ChannelCloser() { channel->close(); }
};

// The live client count the streamed pipelines feed the PFS contention
// model for *blocking* transfers: every registered writer and reader fleet
// across overlapping worlds, plus this client itself. Streams register
// with the PFS only while their data is in flight (see
// AppendStream::engage), so at call time the caller's own stream is not
// yet counted — the +1 adds it, exactly reproducing what the old
// whole-function WriterScope/ReaderScope registration fed the model. A
// lone pipeline sees 1; overlapping streams contend honestly. (Transport
// endpoints price their sectors themselves, while engaged, without the
// +1.)
int self_inclusive_clients(const PfsSimulator& pfs) {
  return std::max(1,
                  pfs.concurrent_writers() + pfs.concurrent_readers() + 1);
}

void fill_telemetry(TransportTelemetry& t, const TransportConfig& config,
                    std::size_t sectors, std::size_t credit_stalls,
                    double credit_stall_s, double mean_inflight,
                    int peak_inflight) {
  t.channels = config.channels;
  t.ring_depth = config.ring_depth;
  t.sector_bytes = config.sector_bytes;
  t.sectors = sectors;
  t.credit_stalls = credit_stalls;
  t.credit_stall_s = credit_stall_s;
  t.mean_inflight = mean_inflight;
  t.peak_inflight = peak_inflight;
}

}  // namespace

StreamWriteRecord run_streamed_compress_write(const Field& field,
                                              const PipelineConfig& config,
                                              PfsSimulator& pfs,
                                              const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.slabs >= 1, "stream needs at least one slab");
  EBLCIO_CHECK_ARG(stream.queue_depth >= 1, "queue depth must be positive");
  Compressor& comp = compressor(config.codec);
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  const auto slabs = split_slabs(field, stream.slabs);
  const std::size_t nslabs = slabs.size();
  // Slabs are zones: the same slab_rows distribution, so the footer zone
  // index places each chunk's row interval for later partial-region reads.
  const auto zones = zone_extents(field.shape().dim(0), stream.slabs);

  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = config.error_bound;
  opt.threads = config.threads;
  // The bound must be computed from the whole field's value range, not per
  // slab, or slab reconstructions would satisfy different bounds.
  const double abs_bound = absolute_bound_for(field, opt);
  CompressOptions slab_opt = opt;
  slab_opt.mode = BoundMode::kAbsolute;
  slab_opt.error_bound = abs_bound;

  StreamWriteRecord rec;
  rec.codec = comp.name();
  rec.io_library = tool.name();
  rec.path = "/pfs/" + field.name() + ".eblc.stream." + tool.name();
  rec.slabs = static_cast<int>(nslabs);
  rec.queue_depth = stream.queue_depth;
  rec.original_bytes = field.size_bytes();
  rec.slab_compress_s.resize(nslabs);
  rec.slab_write_s.resize(nslabs);

  PowercapMonitor monitor(cpu);  // thread-safe: both stages record into it
  BoundedChannel<ChunkItem> channel(
      static_cast<std::size_t>(stream.queue_depth));

  WallTimer wall;

  // Producer: compresses slabs in order as one executor task (each slab may
  // itself fan out onto the pool via opt.threads); blocks on the channel
  // when queue_depth blobs await the writer.
  TaskGroup producer;
  double compress_j = 0.0;
  producer.run([&] {
    // The channel must close even when a slab fails to compress, or the
    // consumer would block in pop() forever and the exception (captured
    // by the group) would never surface through producer.wait().
    ChannelCloser closer{&channel};
    for (std::size_t i = 0; i < nslabs; ++i) {
      WallTimer t;
      Bytes blob = comp.compress(slabs[i], slab_opt);
      const auto reading = monitor.record_compute("stream-compress",
                                                  t.elapsed_s(),
                                                  config.threads);
      rec.slab_compress_s[i] = reading.seconds;
      compress_j += reading.joules;
      channel.push({i, 0, std::move(blob), {}});
    }
  });

  // Records one chunk-write IoCost: prep is container serialization work
  // (compute at one core), transfer is PFS time.
  const auto charge_io = [&](const char* io_label, const IoCost& cost) {
    const auto prep =
        monitor.record_compute("stream-write-prep", cost.prep_seconds, 1);
    const auto io = monitor.record_io(io_label, cost.transfer_seconds);
    return std::pair<double, double>(prep.seconds + io.seconds,
                                     prep.joules + io.joules);
  };

  // Consumer (this thread): streams chunks into the IoTool container, one
  // append_zone per slab, while the producer compresses ahead. If it
  // throws, the closer unblocks the producer so the TaskGroup can unwind.
  ChannelCloser closer{&channel};
  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;  // opaque compressed chunks
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = rec.codec;
  auto out = tool.open_zoned(pfs, rec.path, meta);
  if (stream.use_transport) out.enable_transport(stream.transport);
  auto [open_s, open_j] = charge_io("stream-write-open", out.open_cost());
  double write_j = open_j;
  // Per-slab container prep (compute) and payload size, kept for the
  // transport timeline solver and the blocking-path reconstruction.
  std::vector<double> stage_prep_s(nslabs, 0.0);
  std::vector<std::size_t> chunk_bytes(nslabs, 0);
  while (auto item = channel.pop()) {
    const std::size_t i = item->ordinal;
    chunk_bytes[i] = item->blob.size();
    // With transport the append only *stages* sectors (transfer is 0): the
    // wire cost lands in transport()->records() and is charged after the
    // drain, when every sector's contended price is known.
    const IoCost w =
        out.append_zone(item->blob, zones[i], self_inclusive_clients(pfs));
    const auto prep =
        monitor.record_compute("stream-write-prep", w.prep_seconds, 1);
    const auto io = monitor.record_io("stream-write", w.transfer_seconds);
    stage_prep_s[i] = prep.seconds;
    rec.slab_write_s[i] = prep.seconds + io.seconds;
    write_j += prep.joules + io.joules;
    // The blob has landed in the container; recycle its allocation for the
    // next slab's compress/staging buffers.
    BufferPool::global().release(std::move(item->blob));
  }
  // close() drains the transport rings first, so every sector has retired
  // (and priced itself) before the footer commits.
  const IoCost close_cost = out.close(self_inclusive_clients(pfs));
  const auto [close_s, close_j] = charge_io("stream-write-close", close_cost);
  write_j += close_j;
  producer.wait();

  rec.host_wall_s = wall.elapsed_s();
  rec.compressed_bytes = pfs.file_size(rec.path);
  rec.compress_j = compress_j;

  const std::size_t depth = static_cast<std::size_t>(stream.queue_depth);
  double serial_compress = 0.0;
  for (std::size_t i = 0; i < nslabs; ++i)
    serial_compress += rec.slab_compress_s[i];

  // The blocking schedule's per-slab write costs: the writes as charged
  // when the blocking path ran.
  std::vector<double> blocking_write_s = rec.slab_write_s;
  const SectorWriter* transport = out.transport();
  WriteTimeline timeline;
  if (transport) {
    const auto& sectors = transport->records();
    // Charge the wire once, now that every sector has its contended price;
    // fold each message's wire seconds into its slab_write_s column.
    double wire_total = 0.0;
    std::vector<double> slab_wire_s(nslabs, 0.0), slab_xfer_s(nslabs, 0.0);
    for (const SectorRecord& s : sectors) {
      wire_total += s.rpc_s + s.xfer_s;
      slab_wire_s[s.message] += s.rpc_s + s.xfer_s;
      slab_xfer_s[s.message] += s.xfer_s;
    }
    const auto wire = monitor.record_io("stream-write", wire_total);
    write_j += wire.joules;
    for (std::size_t i = 0; i < nslabs; ++i)
      rec.slab_write_s[i] += slab_wire_s[i];

    timeline = solve_write_timeline(stream.transport, sectors,
                                    rec.slab_compress_s, stage_prep_s, depth,
                                    open_s);
    fill_telemetry(rec.transport, stream.transport, sectors.size(),
                   transport->stats().credit_stalls, timeline.credit_stall_s,
                   timeline.mean_inflight, timeline.peak_inflight);

    // What the identical chunk sequence would have cost through the
    // blocking one-append-per-chunk path: the same prep and transfer
    // bytes, but per-chunk stripe RPCs and no overlap between staging and
    // the wire.
    const PfsConfig& pc = pfs.config();
    std::size_t offset = out.open_cost().bytes_written;
    for (std::size_t i = 0; i < nslabs; ++i) {
      const std::size_t len = chunk_bytes[i];
      const std::size_t stripes =
          len ? (offset + len - 1) / pc.stripe_size - offset / pc.stripe_size +
                    1
              : (offset % pc.stripe_size != 0 ? 1 : 0);
      blocking_write_s[i] = stage_prep_s[i] +
                            static_cast<double>(stripes) * pc.rpc_latency_s +
                            slab_xfer_s[i];
      offset += len;
    }
  }
  double serial_write = 0.0;
  for (std::size_t i = 0; i < nslabs; ++i) serial_write += blocking_write_s[i];
  rec.blocking_total_s = solve_blocking_write(rec.slab_compress_s,
                                              blocking_write_s, depth, open_s) +
                         close_s;
  rec.streamed_total_s =
      transport ? timeline.makespan_s + close_s : rec.blocking_total_s;
  // Serial reference: the identical container writes, scheduled after all
  // compression instead of overlapped with it.
  rec.serial_total_s = serial_compress + open_s + serial_write + close_s;
  rec.write_j = write_j;
  return rec;
}

// --- Streamed reads: the restart is the region read over the full box ------

namespace {

// The chunks a read fetches, in order, and the box it assembles (`box`):
// the zones covering `query`, or every chunk over the full dataset box
// when there is no query.
std::vector<std::size_t> plan_read(const IoTool::ChunkReader& reader,
                                   const Region* query, Region& box,
                                   const std::string& path) {
  const ChunkIndex& index = reader.index();
  if (query) {
    EBLCIO_CHECK_STREAM(index.zoned(),
                        "container has no zone index (written before "
                        "zoning, or unzoned writer): " + path);
    // Resolved from the footer index alone; everything after this touches
    // only the covering zones.
    std::vector<std::size_t> covering = reader.covering(*query);
    EBLCIO_CHECK_STREAM(!covering.empty(),
                        "region resolves to no covering zones: " + path);
    box = *query;
    return covering;
  }
  const auto& dims = index.meta.dims;
  EBLCIO_CHECK_STREAM(!index.chunks.empty() && !dims.empty(),
                      "chunked container holds no chunks: " + path);
  box = {std::vector<std::size_t>(dims.size(), 0), dims};
  std::vector<std::size_t> all(index.chunks.size());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

// Checks decoded chunk `c` against the container's index before any of its
// bytes land, then scatters its intersection with `box` into `out`. Rank
// and trailing dims must match the dataset. A zoned chunk must hold exactly
// its extent's rows, so a swapped or forged extent fails cleanly. A
// version-1 container has no zone rows: its chunks arrive in order, land
// at the running row count `next_row`, and must tile dims[0].
void place_zone(const Field& zone, const ChunkIndex& index, std::size_t c,
                const Region& box, std::size_t& next_row, Field& out,
                const std::string& path) {
  const auto& dims = index.meta.dims;
  const Shape& s = zone.shape();
  EBLCIO_CHECK_STREAM(s.ndims() == static_cast<int>(dims.size()),
                      "zone blob does not match the dataset rank: " + path);
  for (int d = 1; d < s.ndims(); ++d)
    EBLCIO_CHECK_STREAM(s.dim(d) == dims[static_cast<std::size_t>(d)],
                        "zone blob does not match the dataset dims: " + path);
  const std::size_t rows = s.dim(0);
  std::size_t row_start = next_row;
  if (index.zoned()) {
    row_start = static_cast<std::size_t>(index.zones[c].row_start);
    EBLCIO_CHECK_STREAM(rows == index.zones[c].rows,
                        "zone blob does not match its index extent: " + path);
  } else {
    const bool last = c + 1 == index.chunks.size();
    EBLCIO_CHECK_STREAM(
        last ? rows == dims[0] - next_row : rows < dims[0] - next_row,
        "chunks do not tile the dataset rows: " + path);
    next_row += rows;
  }
  if (out.ndims() == 0) {
    // The first zone reveals the dtype (the container's dtype_code is the
    // opaque-compressed tag, not the payload dtype).
    const Shape shape{std::span<const std::size_t>(box.shape)};
    out = zone.dtype() == DType::kFloat32
              ? Field(index.meta.name, NdArray<float>(shape))
              : Field(index.meta.name, NdArray<double>(shape));
  }
  EBLCIO_CHECK_STREAM(zone.dtype() == out.dtype(),
                      "zone blobs disagree on dtype: " + path);
  scatter_zone_into_region(zone, row_start, box, out);
}

// The one streamed read: a producer task fetches the planned chunks in
// order (blocking ranged reads, or transport prefetches) while this thread
// decodes and places chunk i-1.
RegionReadRecord stream_read(PfsSimulator& pfs, const std::string& path,
                             const Region* query,
                             const PipelineConfig& config,
                             const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.queue_depth >= 1, "queue depth must be positive");
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  RegionReadRecord rec;
  rec.io_library = tool.name();
  rec.path = path;
  rec.queue_depth = stream.queue_depth;
  rec.container_bytes = pfs.file_size(path);

  PowercapMonitor monitor(cpu);  // thread-safe: both stages record into it

  // Open the container: the footer chunk index and dataset metadata arrive
  // through ranged reads before the pipeline starts (open paid once).
  auto reader =
      tool.open_chunked_reader(pfs, path, self_inclusive_clients(pfs));
  if (stream.use_transport) reader.enable_transport(stream.transport);
  const ChunkIndex& index = reader.index();
  const std::vector<std::size_t> chunks =
      plan_read(reader, query, rec.region, path);
  const std::size_t n = chunks.size();
  rec.zones_total = static_cast<int>(index.chunks.size());
  rec.zones_decoded = static_cast<int>(n);
  rec.zone_fetch_s.resize(n);
  rec.zone_decompress_s.resize(n);

  const auto open_prep = monitor.record_compute(
      "stream-read-prep", reader.open_cost().prep_seconds, 1);
  const auto open_io =
      monitor.record_io("stream-read-open", reader.open_cost().transfer_seconds);
  const double open_s = open_prep.seconds + open_io.seconds;
  double fetch_j = open_prep.joules + open_io.joules;

  WallTimer wall;
  // Per-chunk consumer-side compute (fetch prep + decode), the transport
  // timeline solver's consume column.
  std::vector<double> consume_s(n, 0.0);
  std::size_t next_row = 0;
  double decompress_j = 0.0;

  BoundedChannel<ChunkItem> channel(
      static_cast<std::size_t>(stream.queue_depth));
  // Declared after the channel: if the consumer throws, the group's
  // destructor waits out the producer before the channel is destroyed.
  TaskGroup producer;
  producer.run([&] {
    ChannelCloser closer{&channel};
    for (std::size_t i = 0; i < n; ++i) {
      ChunkItem item{i, 0, {}, {}};
      if (reader.transport_enabled())
        item.handle = reader.prefetch_chunk(chunks[i]);
      else
        item.blob = reader.read_chunk(chunks[i], &item.cost,
                                      self_inclusive_clients(pfs));
      channel.push(std::move(item));
    }
  });

  // Consumer (this thread): charges each chunk's fetch, decodes it, and
  // places it. A corrupt chunk throws here; the closer unblocks the
  // producer and no partial field escapes.
  ChannelCloser closer{&channel};
  while (auto item = channel.pop()) {
    const std::size_t i = item->ordinal;
    if (reader.transport_enabled())
      item->blob = reader.await_chunk(item->handle, chunks[i], &item->cost);
    const auto prep =
        monitor.record_compute("stream-fetch-prep", item->cost.prep_seconds, 1);
    const auto io =
        monitor.record_io("stream-fetch", item->cost.transfer_seconds);
    rec.zone_fetch_s[i] = prep.seconds + io.seconds;
    fetch_j += prep.joules + io.joules;
    rec.bytes_fetched += item->blob.size();
    WallTimer t;
    place_zone(decompress_any(item->blob, 1), index, chunks[i], rec.region,
               next_row, rec.field, path);
    const auto reading =
        monitor.record_compute("stream-decompress", t.elapsed_s(), 1);
    rec.zone_decompress_s[i] = reading.seconds;
    consume_s[i] = prep.seconds + reading.seconds;
    decompress_j += reading.joules;
    // The fetched chunk is decoded; its buffer feeds the next fetch.
    BufferPool::global().release(std::move(item->blob));
  }
  producer.wait();

  rec.host_wall_s = wall.elapsed_s();
  rec.fetch_j = fetch_j;
  rec.decompress_j = decompress_j;
  rec.field_bytes = rec.field.size_bytes();

  const std::size_t depth = static_cast<std::size_t>(stream.queue_depth);
  double serial_fetch = 0.0, serial_decompress = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    serial_fetch += rec.zone_fetch_s[i];
    serial_decompress += rec.zone_decompress_s[i];
  }
  if (const SectorReader* transport = reader.transport()) {
    const ReadTimeline timeline =
        solve_read_timeline(stream.transport, transport->records(), consume_s,
                            depth, open_s);
    rec.streamed_total_s = timeline.makespan_s;
    fill_telemetry(rec.transport, stream.transport,
                   transport->records().size(),
                   transport->stats().credit_stalls, timeline.credit_stall_s,
                   timeline.mean_inflight, timeline.peak_inflight);
  } else {
    rec.streamed_total_s = solve_blocking_read(
        rec.zone_fetch_s, rec.zone_decompress_s, depth, open_s);
  }
  // Serial reference: open, fetch everything, then decompress everything.
  rec.serial_total_s = open_s + serial_fetch + serial_decompress;
  return rec;
}

// The serial reference for stream_read's field: fetches, decodes and
// places the same planned chunks in order on the calling thread.
Field read_reference(PfsSimulator& pfs, const std::string& path,
                     const Region* query, const std::string& io_library) {
  auto reader = io_tool(io_library).open_chunked_reader(pfs, path);
  Region box;
  std::size_t next_row = 0;
  Field out;
  for (std::size_t c : plan_read(reader, query, box, path)) {
    Bytes blob = reader.read_chunk(c);
    place_zone(decompress_any(blob, 1), reader.index(), c, box, next_row, out,
               path);
    BufferPool::global().release(std::move(blob));
  }
  return out;
}

}  // namespace

StreamReadRecord run_streamed_read(PfsSimulator& pfs, const std::string& path,
                                   const PipelineConfig& config,
                                   const StreamConfig& stream) {
  return stream_read(pfs, path, nullptr, config, stream);
}

Field read_chunked_field(PfsSimulator& pfs, const std::string& path,
                         const std::string& io_library) {
  return read_reference(pfs, path, nullptr, io_library);
}

RegionReadRecord run_streamed_read_region(PfsSimulator& pfs,
                                          const std::string& path,
                                          const Region& region,
                                          const PipelineConfig& config,
                                          const StreamConfig& stream) {
  return stream_read(pfs, path, &region, config, stream);
}

Field read_region_reference(PfsSimulator& pfs, const std::string& path,
                            const Region& region,
                            const std::string& io_library) {
  return read_reference(pfs, path, &region, io_library);
}

}  // namespace eblcio
