#include "io/io_tool.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Shared chunked-container framing. The header is written at open, chunks
// are appended raw (their extents live in the footer, so no inline
// framing), and the footer index commits at close with its own start
// offset in the trailing 8 bytes — the same locate-by-footer scheme BP
// files use, which a reader can reach with three ranged fetches.
//
// Version 1 (the PR-4 wire format) is frozen: header version 1 + "CIDX"
// footer holding (offset, size) per chunk. Version 2 adds the zone index:
// header version 2 + "ZIDX" footer holding (offset, size, row_start, rows)
// per chunk. A version-1 writer still emits byte-identical containers, and
// the reader accepts both (cross-checking that the header version and the
// footer magic agree).
constexpr std::uint32_t kChunkMagic = 0x4b434245;        // "EBCK"
constexpr std::uint32_t kChunkFooterMagic = 0x58444943;  // "CIDX"
constexpr std::uint32_t kZoneFooterMagic = 0x5844495a;   // "ZIDX"
constexpr std::uint16_t kChunkVersion = 1;
constexpr std::uint16_t kZonedVersion = 2;

Bytes encode_chunk_header(const std::string& tool,
                          const ChunkedDatasetMeta& meta,
                          std::uint16_t version) {
  Bytes out;
  append_pod<std::uint32_t>(out, kChunkMagic);
  append_pod<std::uint16_t>(out, version);
  append_string(out, tool);
  append_string(out, meta.name);
  append_pod<std::uint8_t>(out, meta.dtype_code);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(meta.dims.size()));
  for (std::size_t d : meta.dims) append_pod<std::uint64_t>(out, d);
  append_pod<std::uint32_t>(out,
                            static_cast<std::uint32_t>(meta.attributes.size()));
  for (const auto& [k, v] : meta.attributes) {
    append_string(out, k);
    append_string(out, v);
  }
  return out;
}

ChunkedDatasetMeta decode_chunk_header(std::span<const std::byte> bytes,
                                       const std::string& expected_tool,
                                       std::uint16_t expected_version) {
  ByteReader r(bytes);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kChunkMagic,
                      "chunked container: bad magic");
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint16_t>() == expected_version,
                      "chunked container: header/footer version mismatch");
  const std::string tool = r.read_string();
  EBLCIO_CHECK_STREAM(tool == expected_tool,
                      "chunked container was written by " + tool +
                          ", not " + expected_tool);
  ChunkedDatasetMeta meta;
  meta.name = r.read_string();
  meta.dtype_code = r.read_pod<std::uint8_t>();
  const auto ndims = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < ndims; ++i)
    meta.dims.push_back(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
  const auto nattrs = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    std::string k = r.read_string();
    meta.attributes[k] = r.read_string();
  }
  return meta;
}

Bytes encode_chunk_footer(const std::vector<ChunkExtent>& extents,
                          std::uint64_t footer_start) {
  Bytes out;
  append_pod<std::uint32_t>(out, kChunkFooterMagic);
  append_pod<std::uint64_t>(out, static_cast<std::uint64_t>(extents.size()));
  for (const auto& e : extents) {
    append_pod<std::uint64_t>(out, e.offset);
    append_pod<std::uint64_t>(out, e.size);
  }
  append_pod<std::uint64_t>(out, footer_start);
  return out;
}

Bytes encode_zone_footer(const std::vector<ChunkExtent>& extents,
                         const std::vector<ZoneExtent>& zones,
                         std::uint64_t footer_start) {
  Bytes out;
  append_pod<std::uint32_t>(out, kZoneFooterMagic);
  append_pod<std::uint64_t>(out, static_cast<std::uint64_t>(extents.size()));
  for (std::size_t i = 0; i < extents.size(); ++i) {
    append_pod<std::uint64_t>(out, extents[i].offset);
    append_pod<std::uint64_t>(out, extents[i].size);
    append_pod<std::uint64_t>(out, zones[i].row_start);
    append_pod<std::uint64_t>(out, zones[i].rows);
  }
  append_pod<std::uint64_t>(out, footer_start);
  return out;
}

// The classic-model conversion buffer: data really passes through an
// intermediate copy. The copy is pooled and the caller releases whichever
// buffer it drops, so staging allocations recycle across chunks.
Bytes staging_copy(std::span<const std::byte> data) {
  Bytes staged = BufferPool::global().acquire(data.size());
  staged.resize(data.size());
  std::copy(data.begin(), data.end(), staged.begin());
  return staged;
}

// --- whole-file layouts ------------------------------------------------------
//
// A whole-file container holds one dataset. Every layout carries its
// metadata through one codec (name, dtype, u8 ndims + u64 dims,
// attributes) behind a u32 dataset count that is always 1; what differs
// per library is where metadata and payload sit, and which metadata syncs
// the encoder reports for the write to pay.

struct Encoded {
  Bytes bytes;
  int header_syncs = 0;  // header rewrites (one PFS open latency each)
  int footer_rpcs = 0;   // index commits (one PFS RPC latency each)
};

void encode_meta(Bytes& out, const ChunkedDatasetMeta& meta) {
  append_pod<std::uint32_t>(out, 1);  // dataset count
  append_string(out, meta.name);
  append_pod<std::uint8_t>(out, meta.dtype_code);
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(meta.dims.size()));
  for (std::size_t d : meta.dims) append_pod<std::uint64_t>(out, d);
  append_pod<std::uint32_t>(out,
                            static_cast<std::uint32_t>(meta.attributes.size()));
  for (const auto& [k, v] : meta.attributes) {
    append_string(out, k);
    append_string(out, v);
  }
}

ChunkedDatasetMeta decode_meta(ByteReader& r, const std::string& tool) {
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == 1,
                      tool + " container: expected exactly one dataset");
  ChunkedDatasetMeta meta;
  meta.name = r.read_string();
  meta.dtype_code = r.read_pod<std::uint8_t>();
  const int ndims = r.read_pod<std::uint8_t>();
  for (int i = 0; i < ndims; ++i)
    meta.dims.push_back(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
  const auto nattrs = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    std::string k = r.read_string();
    meta.attributes[k] = r.read_string();
  }
  return meta;
}

// HDF5: superblock, then the dataset's metadata and its chunk table inline
// (1 MiB chunks, each length-prefixed). The chunks are written straight
// from the caller's buffer and the table needs no separate commit, so the
// whole-file write reports no sync.
constexpr std::uint32_t kH5Magic = 0x494c3548;  // "H5LI"
constexpr std::uint16_t kH5Version = 1;
constexpr std::size_t kH5ChunkSize = std::size_t{1} << 20;

Encoded h5_encode(const ChunkedDatasetMeta& meta,
                  std::span<const std::byte> payload) {
  Encoded e;
  append_pod<std::uint32_t>(e.bytes, kH5Magic);
  append_pod<std::uint16_t>(e.bytes, kH5Version);
  encode_meta(e.bytes, meta);
  const std::size_t nchunks =
      (payload.size() + kH5ChunkSize - 1) / kH5ChunkSize;
  append_pod<std::uint64_t>(e.bytes, payload.size());
  append_pod<std::uint32_t>(e.bytes, static_cast<std::uint32_t>(nchunks));
  for (std::size_t off = 0; off < payload.size(); off += kH5ChunkSize) {
    const auto chunk =
        payload.subspan(off, std::min(kH5ChunkSize, payload.size() - off));
    append_pod<std::uint64_t>(e.bytes, chunk.size());
    append_bytes(e.bytes, chunk);
  }
  return e;
}

Bytes h5_decode(std::span<const std::byte> file, ChunkedDatasetMeta& meta) {
  ByteReader r(file);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kH5Magic,
                      "HDF5 container: bad magic");
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint16_t>() == kH5Version,
                      "HDF5 container: bad version");
  meta = decode_meta(r, "HDF5");
  const auto total = r.read_pod<std::uint64_t>();
  const auto nchunks = r.read_pod<std::uint32_t>();
  // The chunks follow inline: a total past the file's end is forged, and
  // must fail before it sizes the reservation.
  EBLCIO_CHECK_STREAM(total <= r.remaining().size(),
                      "HDF5 container: dataset larger than the file");
  Bytes data;
  data.reserve(static_cast<std::size_t>(total));
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    const auto chunk = r.read_bytes(r.read_pod<std::uint64_t>());
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  EBLCIO_CHECK_STREAM(data.size() == total,
                      "HDF5 container: chunk size mismatch");
  return data;
}

// NetCDF classic: a monolithic header (metadata plus the payload size),
// then the data section staged through the library's conversion buffer —
// a real extra copy. The header is rewritten at enddef and at close.
constexpr std::uint32_t kNcMagic = 0x05464443;  // "CDF\x05"
constexpr int kNcHeaderSyncs = 2;               // enddef + close

Encoded nc_encode(const ChunkedDatasetMeta& meta,
                  std::span<const std::byte> payload) {
  Encoded e;
  e.header_syncs = kNcHeaderSyncs;
  append_pod<std::uint32_t>(e.bytes, kNcMagic);
  encode_meta(e.bytes, meta);
  append_pod<std::uint64_t>(e.bytes, payload.size());
  Bytes staged = staging_copy(payload);
  append_bytes(e.bytes, staged);
  BufferPool::global().release(std::move(staged));
  return e;
}

Bytes nc_decode(std::span<const std::byte> file, ChunkedDatasetMeta& meta) {
  ByteReader r(file);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kNcMagic,
                      "NetCDF container: bad magic");
  meta = decode_meta(r, "NetCDF");
  const auto data = r.read_bytes(r.read_pod<std::uint64_t>());
  return Bytes(data.begin(), data.end());
}

// ADIOS BP: the payload lands as one appended process-group segment, then
// a footer index written once at close (one RPC) whose start offset sits
// in the trailing 8 bytes; readers locate the segment through the footer.
constexpr std::uint32_t kBpMagic = 0x4f494442;        // "BDIO"
constexpr std::uint32_t kBpFooterMagic = 0x52544f46;  // "FOTR"

Encoded bp_encode(const ChunkedDatasetMeta& meta,
                  std::span<const std::byte> payload) {
  Encoded e;
  e.footer_rpcs = 1;
  append_pod<std::uint32_t>(e.bytes, kBpMagic);
  const std::uint64_t offset = e.bytes.size();
  append_bytes(e.bytes, payload);
  const std::uint64_t footer_start = e.bytes.size();
  append_pod<std::uint32_t>(e.bytes, kBpFooterMagic);
  encode_meta(e.bytes, meta);
  append_pod<std::uint64_t>(e.bytes, offset);
  append_pod<std::uint64_t>(e.bytes, payload.size());
  append_pod<std::uint64_t>(e.bytes, footer_start);
  return e;
}

Bytes bp_decode(std::span<const std::byte> file, ChunkedDatasetMeta& meta) {
  EBLCIO_CHECK_STREAM(file.size() >= 12, "ADIOS container: file too small");
  EBLCIO_CHECK_STREAM(ByteReader(file).read_pod<std::uint32_t>() == kBpMagic,
                      "ADIOS container: bad magic");
  // Wrap-safe: the bounds are checked as differences, never as sums of
  // forged offsets.
  std::uint64_t footer_start = 0;
  std::memcpy(&footer_start, file.data() + file.size() - 8, 8);
  EBLCIO_CHECK_STREAM(footer_start <= file.size() - 8,
                      "ADIOS container: bad footer offset");
  ByteReader r(file.first(file.size() - 8).subspan(footer_start));
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kBpFooterMagic,
                      "ADIOS container: bad footer magic");
  meta = decode_meta(r, "ADIOS");
  const auto offset = r.read_pod<std::uint64_t>();
  const auto size = r.read_pod<std::uint64_t>();
  EBLCIO_CHECK_STREAM(size <= footer_start && offset <= footer_start - size,
                      "ADIOS container: segment out of range");
  const auto data = file.subspan(offset, size);
  return Bytes(data.begin(), data.end());
}

// Checks the payload against the shape before allocating, so forged dims
// cannot size the array.
template <typename T>
NdArray<T> field_array(const Shape& shape, const Bytes& data,
                       const std::string& tool) {
  EBLCIO_CHECK_STREAM(data.size() % sizeof(T) == 0 &&
                          data.size() / sizeof(T) == shape.num_elements(),
                      tool + " container: data size mismatch");
  NdArray<T> arr(shape);
  std::memcpy(arr.data(), data.data(), data.size());
  return arr;
}

}  // namespace

struct IoTool::Layout {
  Encoded (*encode)(const ChunkedDatasetMeta& meta,
                    std::span<const std::byte> payload);
  Bytes (*decode)(std::span<const std::byte> file, ChunkedDatasetMeta& meta);
};

// --- whole-file datasets ---------------------------------------------------

IoCost IoTool::write_dataset(PfsSimulator& pfs, const std::string& path,
                             const ChunkedDatasetMeta& meta,
                             std::span<const std::byte> payload,
                             int concurrent_clients) const {
  const Encoded encoded = layout_->encode(meta, payload);
  const PfsConfig& pfs_config = pfs.config();
  IoCost cost;
  cost.prep_seconds =
      profile_.per_chunk_prep_s +
      static_cast<double>(encoded.bytes.size()) / profile_.prep_bandwidth_bps;
  cost.transfer_seconds =
      pfs.write_file(path, encoded.bytes, concurrent_clients).seconds +
      encoded.header_syncs * pfs_config.open_latency_s +
      encoded.footer_rpcs * pfs_config.rpc_latency_s;
  cost.bytes_written = encoded.bytes.size();
  return cost;
}

IoCost IoTool::write_field(PfsSimulator& pfs, const std::string& path,
                           const Field& field, int concurrent_clients) const {
  ChunkedDatasetMeta meta;
  meta.name = field.name().empty() ? "data" : field.name();
  meta.dtype_code = field.dtype() == DType::kFloat32 ? 0 : 1;
  meta.dims = field.shape().dims_vector();
  return write_dataset(pfs, path, meta, field.bytes(), concurrent_clients);
}

IoCost IoTool::write_blob(PfsSimulator& pfs, const std::string& path,
                          const std::string& dataset_name,
                          std::span<const std::byte> blob,
                          int concurrent_clients) const {
  ChunkedDatasetMeta meta;
  meta.name = dataset_name;
  meta.dims = {blob.size()};
  meta.attributes["content"] = "eblc-compressed";
  return write_dataset(pfs, path, meta, blob, concurrent_clients);
}

Field IoTool::read_field(PfsSimulator& pfs, const std::string& path) const {
  ChunkedDatasetMeta meta;
  const Bytes data = layout_->decode(pfs.read_file(path), meta);
  EBLCIO_CHECK_STREAM(meta.dtype_code <= 1,
                      name_ + " container: dataset is not a field");
  const Shape shape{std::span<const std::size_t>(meta.dims)};
  if (meta.dtype_code == 0)
    return Field(meta.name, field_array<float>(shape, data, name_));
  return Field(meta.name, field_array<double>(shape, data, name_));
}

Bytes IoTool::read_blob(PfsSimulator& pfs, const std::string& path,
                        const std::string& dataset_name) const {
  ChunkedDatasetMeta meta;
  Bytes data = layout_->decode(pfs.read_file(path), meta);
  EBLCIO_CHECK_ARG(meta.name == dataset_name,
                   name_ + " container: no dataset named " + dataset_name);
  return data;
}

// --- ChunkWriter -----------------------------------------------------------

IoTool::ChunkWriter::ChunkWriter(const IoTool* tool, PfsSimulator& pfs,
                                 std::string path, ChunkedDatasetMeta meta,
                                 bool zoned)
    : tool_(tool),
      stream_(pfs.open_append(path)),
      path_(std::move(path)),
      meta_(std::move(meta)),
      zoned_(zoned) {
  const ChunkProfile& profile = tool_->chunk_profile();
  const Bytes header = encode_chunk_header(
      tool_->name(), meta_, zoned_ ? kZonedVersion : kChunkVersion);
  open_cost_.prep_seconds =
      profile.per_chunk_prep_s +
      static_cast<double>(header.size()) / profile.prep_bandwidth_bps;
  open_cost_.transfer_seconds = stream_.append(header).seconds;
  open_cost_.bytes_written = header.size();
}

IoCost IoTool::ChunkWriter::append_chunk(std::span<const std::byte> chunk,
                                         int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "append_chunk after close: " + path_);
  EBLCIO_CHECK_ARG(!zoned_,
                   "zoned container requires append_zone: " + path_);
  return append_raw(chunk, concurrent_clients);
}

IoCost IoTool::ChunkWriter::append_zone(std::span<const std::byte> chunk,
                                        ZoneExtent zone,
                                        int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "append_zone after close: " + path_);
  EBLCIO_CHECK_ARG(zoned_,
                   "append_zone on an unzoned container: " + path_);
  EBLCIO_CHECK_ARG(zone.rows > 0, "zone covers no rows: " + path_);
  const std::uint64_t expected =
      zones_.empty() ? 0 : zones_.back().row_start + zones_.back().rows;
  EBLCIO_CHECK_ARG(zone.row_start == expected,
                   "zone extents must partition the rows in order: " + path_);
  IoCost cost = append_raw(chunk, concurrent_clients);
  zones_.push_back(zone);
  return cost;
}

void IoTool::ChunkWriter::enable_transport(const TransportConfig& config) {
  EBLCIO_CHECK_ARG(!closed_, "enable_transport after close: " + path_);
  EBLCIO_CHECK_ARG(transport_ == nullptr,
                   "transport already enabled: " + path_);
  staged_bytes_ = stream_.bytes_written();
  transport_ = std::make_unique<SectorWriter>(stream_, config);
}

IoCost IoTool::ChunkWriter::append_raw(std::span<const std::byte> chunk,
                                       int concurrent_clients) {
  const ChunkProfile& profile = tool_->chunk_profile();

  IoCost cost;
  cost.prep_seconds =
      profile.per_chunk_prep_s +
      static_cast<double>(chunk.size()) / profile.prep_bandwidth_bps;
  cost.bytes_written = chunk.size();

  if (transport_) {
    // Transported append: the chunk is staged into pooled sectors and
    // shipped by the doorbell task; its wire cost lands per sector in the
    // endpoint's records, priced at completion-time contention. The
    // extent's offset comes from the staging cursor — the stream's
    // bytes_written() lags while sectors are in flight. The staging
    // memcpy into sector buffers is the tool's conversion-buffer copy, so
    // staging_copy tools take no extra pass here.
    ChunkExtent extent;
    extent.offset = staged_bytes_;
    extent.size = chunk.size();
    transport_->stage(extents_.size(), chunk);
    staged_bytes_ += chunk.size();
    extents_.push_back(extent);
    return cost;
  }

  ChunkExtent extent;
  extent.offset = stream_.bytes_written();
  extent.size = chunk.size();

  if (profile.staging_copy) {
    // append() lands the staged bytes in the PFS stripes, so the staging
    // buffer goes straight back to the pool.
    Bytes staged = staging_copy(chunk);
    cost.transfer_seconds = stream_.append(staged, concurrent_clients).seconds;
    BufferPool::global().release(std::move(staged));
  } else {
    cost.transfer_seconds = stream_.append(chunk, concurrent_clients).seconds;
  }
  extents_.push_back(extent);
  return cost;
}

IoCost IoTool::ChunkWriter::close(int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "double close: " + path_);
  // Every staged sector must land before the footer commits (and before
  // footer_start reads the stream's byte count). A wire error surfaces
  // here, before a broken container could be sealed.
  if (transport_) transport_->drain();
  if (zoned_ && !meta_.dims.empty()) {
    const std::uint64_t covered =
        zones_.empty() ? 0 : zones_.back().row_start + zones_.back().rows;
    EBLCIO_CHECK_ARG(covered == meta_.dims[0],
                     "zone extents do not cover the dataset rows: " + path_);
  }
  const ChunkProfile& profile = tool_->chunk_profile();
  const PfsConfig& pfs_config = stream_.pfs().config();

  const std::uint64_t footer_start =
      static_cast<std::uint64_t>(stream_.bytes_written());
  const Bytes footer = zoned_
                           ? encode_zone_footer(extents_, zones_, footer_start)
                           : encode_chunk_footer(extents_, footer_start);
  IoCost cost;
  cost.prep_seconds =
      profile.per_chunk_prep_s +
      static_cast<double>(footer.size()) / profile.prep_bandwidth_bps;
  cost.transfer_seconds =
      stream_.append(footer, concurrent_clients).seconds +
      profile.close_header_syncs * pfs_config.open_latency_s +
      profile.close_footer_rpcs * pfs_config.rpc_latency_s;
  cost.bytes_written = footer.size();
  closed_ = true;
  return cost;
}

std::size_t IoTool::ChunkWriter::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& e : extents_) n += static_cast<std::size_t>(e.size);
  return n;
}

// --- ChunkReader -----------------------------------------------------------

IoTool::ChunkReader::ChunkReader(const IoTool* tool, PfsSimulator& pfs,
                                 const std::string& path,
                                 int concurrent_clients)
    : tool_(tool), stream_(pfs.open_read(path)) {
  const ChunkProfile& profile = tool_->chunk_profile();
  const std::size_t size = stream_.size();
  EBLCIO_CHECK_STREAM(size >= 8 + 4 + 2,
                      "chunked container too small: " + path);

  // Locate the footer through its trailing start offset, then parse the
  // index and finally the header — three ranged fetches, open paid once.
  const Bytes tail = stream_.read(size - 8, 8, concurrent_clients).data;
  std::uint64_t footer_start = 0;
  std::memcpy(&footer_start, tail.data(), 8);
  EBLCIO_CHECK_STREAM(footer_start <= size - 8,
                      "chunked container: bad footer offset (unclosed "
                      "or truncated?): " + path);

  const Bytes footer =
      stream_
          .read(static_cast<std::size_t>(footer_start),
                size - 8 - static_cast<std::size_t>(footer_start),
                concurrent_clients)
          .data;
  ByteReader r(footer);
  const auto footer_magic = r.read_pod<std::uint32_t>();
  EBLCIO_CHECK_STREAM(footer_magic == kChunkFooterMagic ||
                          footer_magic == kZoneFooterMagic,
                      "chunked container: bad footer magic: " + path);
  const bool zoned = footer_magic == kZoneFooterMagic;
  const std::size_t entry_bytes = zoned ? 32 : 16;
  const auto nchunks = r.read_pod<std::uint64_t>();
  EBLCIO_CHECK_STREAM(footer.size() >= 12 &&
                          nchunks == (footer.size() - 12) / entry_bytes &&
                          (footer.size() - 12) % entry_bytes == 0,
                      "chunked container: index size mismatch: " + path);
  index_.chunks.reserve(static_cast<std::size_t>(nchunks));
  std::uint64_t next_row = 0;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    ChunkExtent e;
    e.offset = r.read_pod<std::uint64_t>();
    e.size = r.read_pod<std::uint64_t>();
    EBLCIO_CHECK_STREAM(e.size <= footer_start && e.offset <= footer_start &&
                            e.offset + e.size <= footer_start,
                        "chunked container: chunk extent out of range: " +
                            path);
    index_.chunks.push_back(e);
    if (zoned) {
      ZoneExtent z;
      z.row_start = r.read_pod<std::uint64_t>();
      z.rows = r.read_pod<std::uint64_t>();
      EBLCIO_CHECK_STREAM(z.rows > 0 && z.row_start == next_row,
                          "chunked container: zone index is not a "
                          "contiguous row partition: " + path);
      next_row = z.row_start + z.rows;
      index_.zones.push_back(z);
    }
  }

  const std::size_t header_len =
      index_.chunks.empty()
          ? static_cast<std::size_t>(footer_start)
          : static_cast<std::size_t>(index_.chunks.front().offset);
  const Bytes header =
      stream_.read(0, header_len, concurrent_clients).data;
  index_.meta = decode_chunk_header(header, tool_->name(),
                                    zoned ? kZonedVersion : kChunkVersion);
  if (zoned) {
    // The zone index must cover exactly the dataset's leading dimension —
    // a forged extent past the field (or short of it) fails here, before
    // any partial read trusts it.
    EBLCIO_CHECK_STREAM(
        !index_.meta.dims.empty() && next_row == index_.meta.dims[0],
        "chunked container: zone index does not cover the dataset: " + path);
  }

  open_cost_.prep_seconds =
      profile.per_chunk_prep_s +
      static_cast<double>(footer.size() + header.size() + 8) /
          profile.prep_bandwidth_bps;
  open_cost_.transfer_seconds = stream_.seconds_total();
  open_cost_.bytes_written = 0;
}

Bytes IoTool::ChunkReader::read_chunk(std::size_t i, IoCost* cost_out,
                                      int concurrent_clients) {
  EBLCIO_CHECK_ARG(i < index_.chunks.size(),
                   "chunk index out of range: " + stream_.path());
  const ChunkExtent& e = index_.chunks[i];
  const ChunkProfile& profile = tool_->chunk_profile();

  auto fetched = stream_.read(static_cast<std::size_t>(e.offset),
                              static_cast<std::size_t>(e.size),
                              concurrent_clients);
  if (profile.staging_copy) {
    // Mirror the write path: the classic library stages fetched data
    // through its conversion buffer before handing it to the caller. The
    // drained fetch buffer goes straight back to the pool.
    Bytes staged = staging_copy(fetched.data);
    BufferPool::global().release(std::move(fetched.data));
    fetched.data = std::move(staged);
  }
  if (cost_out) {
    cost_out->prep_seconds =
        profile.per_chunk_prep_s +
        static_cast<double>(e.size) / profile.prep_bandwidth_bps;
    cost_out->transfer_seconds = fetched.cost.seconds;
    cost_out->bytes_written = 0;
  }
  return std::move(fetched.data);
}

void IoTool::ChunkReader::enable_transport(const TransportConfig& config) {
  EBLCIO_CHECK_ARG(transport_ == nullptr,
                   "transport already enabled: " + stream_.path());
  transport_ = std::make_unique<SectorReader>(stream_, config);
}

std::size_t IoTool::ChunkReader::prefetch_chunk(std::size_t i) {
  EBLCIO_CHECK_ARG(transport_ != nullptr,
                   "prefetch_chunk without transport: " + stream_.path());
  EBLCIO_CHECK_ARG(i < index_.chunks.size(),
                   "chunk index out of range: " + stream_.path());
  const ChunkExtent& e = index_.chunks[i];
  return transport_->request(static_cast<std::size_t>(e.offset),
                             static_cast<std::size_t>(e.size));
}

Bytes IoTool::ChunkReader::await_chunk(std::size_t handle, std::size_t i,
                                       IoCost* cost_out) {
  EBLCIO_CHECK_ARG(transport_ != nullptr,
                   "await_chunk without transport: " + stream_.path());
  EBLCIO_CHECK_ARG(i < index_.chunks.size(),
                   "chunk index out of range: " + stream_.path());
  const ChunkProfile& profile = tool_->chunk_profile();
  double wire_s = 0.0;
  Bytes data = transport_->await(handle, &wire_s);
  if (profile.staging_copy) {
    // Same conversion-buffer mirror as read_chunk.
    Bytes staged = staging_copy(data);
    BufferPool::global().release(std::move(data));
    data = std::move(staged);
  }
  if (cost_out) {
    cost_out->prep_seconds =
        profile.per_chunk_prep_s +
        static_cast<double>(index_.chunks[i].size) /
            profile.prep_bandwidth_bps;
    cost_out->transfer_seconds = wire_s;
    cost_out->bytes_written = 0;
  }
  return data;
}

std::vector<std::size_t> IoTool::ChunkReader::covering(
    const Region& region) const {
  EBLCIO_CHECK_ARG(index_.zoned(),
                   "container has no zone index: " + stream_.path());
  validate_region(region, index_.meta.dims);
  return covering_zones(index_.zones, region.start[0], region.shape[0]);
}

IoTool::ChunkWriter IoTool::open_chunked(PfsSimulator& pfs,
                                         const std::string& path,
                                         ChunkedDatasetMeta meta) const {
  return ChunkWriter(this, pfs, path, std::move(meta), /*zoned=*/false);
}

IoTool::ChunkWriter IoTool::open_zoned(PfsSimulator& pfs,
                                       const std::string& path,
                                       ChunkedDatasetMeta meta) const {
  return ChunkWriter(this, pfs, path, std::move(meta), /*zoned=*/true);
}

IoTool::ChunkReader IoTool::open_chunked_reader(PfsSimulator& pfs,
                                                const std::string& path,
                                                int concurrent_clients) const {
  return ChunkReader(this, pfs, path, concurrent_clients);
}

// The registry: one row per library, {name, ChunkProfile, whole-file
// layout}. The profiles price the mechanisms behind the Fig. 11 gap.
IoTool& io_tool(const std::string& name) {
  static const IoTool::Layout h5_layout{h5_encode, h5_decode};
  static const IoTool::Layout nc_layout{nc_encode, nc_decode};
  static const IoTool::Layout bp_layout{bp_encode, bp_decode};
  // HDF5: datasets with dtype/shape metadata and string attributes in a
  // chunked layout written straight from the caller's buffer (no staging
  // copy) — the direct chunked path is why HDF5 is the energy-efficient
  // choice in Fig. 11. A chunked close commits the chunk B-tree (one RPC).
  static IoTool h5("HDF5",
                   {.prep_bandwidth_bps = 6.0e9,
                    .per_chunk_prep_s = 2.0e-5,
                    .close_footer_rpcs = 1},
                   h5_layout);
  // NetCDF classic: data staged through the library's conversion buffer (a
  // real full copy, at well under memory bandwidth: single-threaded format
  // conversion), and a monolithic header rewritten on every enddef/sync
  // (extra metadata round trips). The HDF5-vs-NetCDF gap emerges from
  // these two mechanisms.
  static IoTool nc("NetCDF",
                   {.prep_bandwidth_bps = 0.9e9,
                    .per_chunk_prep_s = 6.0e-5,
                    .close_header_syncs = kNcHeaderSyncs,
                    .staging_copy = true},
                   nc_layout);
  // ADIOS BP (Sec. II-A's third framework): large sequential appended
  // segments with no staging, and one footer index written at close (a
  // single RPC, unlike NetCDF's header rewrites) — the cheapest write path
  // of the three.
  static IoTool bp("ADIOS",
                   {.prep_bandwidth_bps = 8.0e9,
                    .per_chunk_prep_s = 1.0e-5,
                    .close_footer_rpcs = 1},
                   bp_layout);
  const std::string key = lower(name);
  if (key == "hdf5" || key == "h5") return h5;
  if (key == "netcdf" || key == "nc") return nc;
  if (key == "adios" || key == "bp") return bp;
  throw InvalidArgument("unknown I/O tool: " + name);
}

// The two libraries the paper benchmarks (Sec. IV-D). ADIOS is available
// via io_tool("ADIOS") as an extension but is kept out of the paper sweeps.
const std::vector<std::string>& io_tool_names() {
  static const std::vector<std::string> kNames = {"HDF5", "NetCDF"};
  return kNames;
}

}  // namespace eblcio
