#include "replay.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "codec/huffman.h"
#include "codec/lz77.h"
#include "common/buffer_pool.h"
#include "common/error.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/interp_core.h"
#include "compressors/zone.h"
#include "io/io_tool.h"

namespace e2e {

using namespace eblcio;

namespace {

// --- encode side ----------------------------------------------------------

// encode_code_stream, one span per stage: Huffman, then LZ over the Huffman
// bytes, keeping whichever is smaller behind its backend tag.
void encode_codes(Tracer& tr, const std::vector<std::uint32_t>& codes,
                  std::uint32_t alphabet, Bytes& out, CodecCounters& cc) {
  Bytes huff;
  {
    Span s(&tr, "huffman_encode", Layer::kHuffmanEncode);
    huff = huffman_encode(codes, alphabet);
  }
  Bytes lz;
  const int lz_span = [&] {
    Span s(&tr, "lz_compress", Layer::kLzCompress);
    lz = lz_compress(huff);
    return s.id();
  }();
  const bool keep_lz = lz.size() < huff.size();
  cc.codes += codes.size();
  cc.huff_bytes += huff.size();
  cc.lz_runs += 1;
  cc.lz_kept += keep_lz ? 1 : 0;
  if (!keep_lz) cc.lz_wasted_s += tr.seconds(lz_span);
  const Bytes& kept = keep_lz ? lz : huff;
  append_pod<std::uint8_t>(out, keep_lz ? kBackendHuffmanLz : kBackendHuffman);
  append_pod<std::uint64_t>(out, kept.size());
  append_bytes(out, kept);
  BufferPool::global().release(std::move(huff));
  BufferPool::global().release(std::move(lz));
}

BlobHeader slab_header(const std::string& codec, const Field& slab,
                       const CompressOptions& slab_opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = slab.dtype();
  h.dims = slab.shape().dims_vector();
  h.abs_error_bound = absolute_bound_for(slab, slab_opt);
  h.requested_mode = slab_opt.mode;
  h.requested_bound = slab_opt.error_bound;
  return h;
}

// Sz3Compressor::compress at threads=1: single-layout framing around the
// interp payload.
Bytes compress_sz3(Tracer& tr, const Field& slab, const CompressOptions& opt,
                   CodecCounters& cc) {
  Span codec(&tr, "SZ3::compress", Layer::kFraming);
  const BlobHeader h = slab_header("SZ3", slab, opt);
  const InterpConfig config;
  InterpEncoding enc;
  {
    Span s(&tr, "interp_compress", Layer::kPredict);
    enc = interp_compress(slab, h.abs_error_bound, config);
  }
  Bytes payload;
  append_pod<std::uint64_t>(payload, config.anchor_stride);
  append_pod<double>(payload, config.level_gamma);
  append_pod<std::uint8_t>(payload, config.cubic ? 1 : 0);
  append_pod<std::uint64_t>(payload, enc.codes.size());
  append_sized(payload, enc.anchors);
  append_sized(payload, enc.unpred);
  encode_codes(tr, enc.codes, enc.alphabet_size, payload, cc);

  Bytes out;
  h.encode(out);
  append_pod<std::uint8_t>(out, kLayoutSingle);
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);
  return out;
}

// Sz2Compressor::compress at threads=1: one slab of block streams, then
// the entropy stage over its codes.
Bytes compress_sz2(Tracer& tr, const Field& slab, const CompressOptions& opt,
                   CodecCounters& cc) {
  Span codec(&tr, "SZ2::compress", Layer::kFraming);
  const BlobHeader h = slab_header("SZ2", slab, opt);
  BlockEncoding enc;
  {
    Span s(&tr, "block_compress", Layer::kPredict);
    enc = block_compress(slab, h.abs_error_bound,
                         BlockPredictor::kLorenzoRegression,
                         QuantizerId::kLinearRecip, 0.0);
  }
  Bytes out;
  h.encode(out);
  append_pod<std::uint32_t>(out, 1);
  append_pod<std::uint64_t>(out, enc.codes.size());
  append_sized(out, enc.mode_bits);
  append_sized(out, enc.coeffs);
  append_sized(out, enc.unpred);
  encode_codes(tr, enc.codes, kQuantAlphabet, out, cc);
  return out;
}

Bytes compress_slab(Tracer& tr, const std::string& codec, const Field& slab,
                    const CompressOptions& opt, CodecCounters& cc) {
  if (codec == "SZ3") return compress_sz3(tr, slab, opt, cc);
  if (codec == "SZ2") return compress_sz2(tr, slab, opt, cc);
  throw InvalidArgument("replay: no layer-by-layer replay for " + codec);
}

// --- decode side ----------------------------------------------------------

// decode_code_stream for the two tags the legacy codecs emit.
std::vector<std::uint32_t> decode_codes(Tracer& tr, ByteReader& r) {
  const auto tag = r.read_pod<std::uint8_t>();
  const auto blob = read_sized(r);
  if (tag == kBackendHuffman) {
    Span s(&tr, "huffman_decode", Layer::kHuffmanDecode);
    return huffman_decode(blob);
  }
  EBLCIO_CHECK_STREAM(tag == kBackendHuffmanLz, "replay: unexpected backend");
  Bytes huff;
  {
    Span s(&tr, "lz_decompress", Layer::kLzDecompress);
    huff = lz_decompress(blob);
  }
  Span s(&tr, "huffman_decode", Layer::kHuffmanDecode);
  return huffman_decode(huff);
}

Field decompress_sz3(Tracer& tr, std::span<const std::byte> blob) {
  Span codec(&tr, "SZ3::decompress", Layer::kFraming);
  ByteReader r(blob);
  const BlobHeader h = BlobHeader::decode(r);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint8_t>() == kLayoutSingle,
                      "replay: SZ3 blob is not single-layout");
  ByteReader p(read_sized(r));
  InterpConfig config;
  config.anchor_stride = p.read_pod<std::uint64_t>();
  config.level_gamma = p.read_pod<double>();
  config.cubic = p.read_pod<std::uint8_t>() != 0;
  const auto ncodes = p.read_pod<std::uint64_t>();
  const auto anchors = read_sized(p);
  const auto unpred = read_sized(p);
  const auto codes = decode_codes(tr, p);
  EBLCIO_CHECK_STREAM(codes.size() == ncodes, "replay: SZ3 code count");
  Span s(&tr, "interp_decompress", Layer::kReconstruct);
  return interp_decompress(h, config, codes, anchors, unpred);
}

Field decompress_sz2(Tracer& tr, std::span<const std::byte> blob) {
  Span codec(&tr, "SZ2::decompress", Layer::kFraming);
  ByteReader r(blob);
  const BlobHeader h = BlobHeader::decode(r);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == 1,
                      "replay: SZ2 blob has more than one slab");
  const auto ncodes = r.read_pod<std::uint64_t>();
  const auto mode_bits = read_sized(r);
  ByteReader coeffs(read_sized(r));
  ByteReader unpred(read_sized(r));
  const auto codes = decode_codes(tr, r);
  EBLCIO_CHECK_STREAM(codes.size() == ncodes, "replay: SZ2 code count");
  std::vector<Field> slabs(1);
  {
    Span s(&tr, "block_decompress", Layer::kReconstruct);
    slabs[0] = block_decompress(h, BlockPredictor::kLorenzoRegression,
                                QuantizerId::kLinearRecip, 0.0, codes,
                                mode_bits, coeffs, unpred);
  }
  Span s(&tr, "merge_slabs", Layer::kChunking);
  return merge_slabs(slabs, h.dims, "SZ2");
}

Field decompress_slab(Tracer& tr, const std::string& codec,
                      std::span<const std::byte> blob) {
  if (codec == "SZ3") return decompress_sz3(tr, blob);
  if (codec == "SZ2") return decompress_sz2(tr, blob);
  throw InvalidArgument("replay: no layer-by-layer replay for " + codec);
}

void add_records(const std::vector<SectorRecord>& records, bool read,
                 WireCounters& wire) {
  for (const SectorRecord& s : records) {
    wire.rpc_s += s.rpc_s;
    wire.xfer_s += s.xfer_s;
    if (read) wire.bytes_read += s.bytes;
  }
  wire.sectors += records.size();
}

// Opens `path` for reading with the default transport.
IoTool::ChunkReader open_reader(Tracer& tr, PfsSimulator& pfs,
                                const std::string& path) {
  Span s(&tr, "open_chunked_reader", Layer::kContainerRead);
  return io_tool("HDF5").open_chunked_reader(pfs, path,
                                             self_inclusive_clients(pfs));
}

// Fetches chunk `i` through the reader's transport (prefetch, then await).
Bytes fetch_chunk(Tracer& tr, IoTool::ChunkReader& reader, std::size_t i) {
  Span s(&tr, "ChunkReader::fetch", Layer::kContainerRead);
  return reader.await_chunk(reader.prefetch_chunk(i), i);
}

void finish_reader(Tracer& tr, IoTool::ChunkReader& reader,
                   WireCounters& wire) {
  Span s(&tr, "SectorReader::drain", Layer::kContainerRead);
  SectorReader& t = *reader.transport();
  t.drain();
  add_records(t.records(), true, wire);
  wire.credit_stalls += t.stats().credit_stalls;
}

}  // namespace

ReplayResult traced_write(Tracer& tr, const Field& field,
                          const WorkloadSpec& w, PfsSimulator& pfs,
                          const std::string& path, CodecCounters& codec,
                          WireCounters& wire) {
  ReplayResult res;
  Span op(&tr, "op.write", Layer::kOp);
  res.root = op.id();
  IoTool& tool = io_tool("HDF5");
  const std::string codec_name = compressor(w.codec).name();

  std::vector<Field> slabs;
  std::vector<ZoneExtent> zones;
  {
    Span s(&tr, "split_slabs", Layer::kChunking);
    slabs = split_slabs(field, w.slabs);
    zones = zone_extents(field.shape().dim(0), w.slabs);
  }
  CompressOptions slab_opt;
  slab_opt.mode = BoundMode::kValueRangeRel;
  slab_opt.error_bound = w.error_bound;
  slab_opt.threads = 1;
  {
    Span s(&tr, "absolute_bound_for", Layer::kFraming);
    slab_opt.error_bound = absolute_bound_for(field, slab_opt);
    slab_opt.mode = BoundMode::kAbsolute;
  }

  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = codec_name;
  auto out = [&] {
    Span s(&tr, "IoTool::open_zoned", Layer::kContainerWrite);
    return tool.open_zoned(pfs, path, meta);
  }();
  {
    Span s(&tr, "ChunkWriter::enable_transport", Layer::kContainerWrite);
    out.enable_transport(stream_config(w).transport);
  }
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    Bytes blob = compress_slab(tr, codec_name, slabs[i], slab_opt, codec);
    Span s(&tr, "ChunkWriter::append_zone", Layer::kContainerWrite);
    out.append_zone(blob, zones[i], self_inclusive_clients(pfs));
    BufferPool::global().release(std::move(blob));
  }
  {
    Span s(&tr, "ChunkWriter::close", Layer::kContainerWrite);
    out.close(self_inclusive_clients(pfs));
  }
  const SectorWriter& t = *out.transport();
  add_records(t.records(), false, wire);
  wire.credit_stalls += t.stats().credit_stalls;
  wire.bytes_written += pfs.file_size(path);
  return res;
}

ReplayResult traced_read(Tracer& tr, PfsSimulator& pfs,
                         const std::string& path, WireCounters& wire) {
  ReplayResult res;
  Span op(&tr, "op.read", Layer::kOp);
  res.root = op.id();
  auto reader = open_reader(tr, pfs, path);
  {
    Span s(&tr, "ChunkReader::enable_transport", Layer::kContainerRead);
    reader.enable_transport(TransportConfig{});
  }
  const ChunkIndex& index = reader.index();
  const std::string codec = index.meta.attributes.at("codec");
  const std::size_t n = index.chunks.size();
  EBLCIO_CHECK_STREAM(n >= 1, "replay: container holds no slabs");
  std::vector<Field> slabs(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes blob = fetch_chunk(tr, reader, i);
    slabs[i] = decompress_slab(tr, codec, blob);
    BufferPool::global().release(std::move(blob));
  }
  finish_reader(tr, reader, wire);
  Span s(&tr, "merge_slabs", Layer::kChunking);
  res.field = merge_slabs(slabs, index.meta.dims, index.meta.name);
  return res;
}

ReplayResult traced_query(Tracer& tr, PfsSimulator& pfs,
                          const std::string& path, const Region& region,
                          WireCounters& wire) {
  ReplayResult res;
  Span op(&tr, "op.query", Layer::kOp);
  res.root = op.id();
  auto reader = open_reader(tr, pfs, path);
  std::vector<std::size_t> covering;
  {
    Span s(&tr, "ChunkReader::covering", Layer::kContainerRead);
    reader.enable_transport(TransportConfig{});
    covering = reader.covering(region);
  }
  const ChunkIndex& index = reader.index();
  const std::string codec = index.meta.attributes.at("codec");
  std::optional<Field> out;
  for (const std::size_t zi : covering) {
    Bytes blob = fetch_chunk(tr, reader, zi);
    res.fetched_bytes += blob.size();
    const Field zone = decompress_slab(tr, codec, blob);
    BufferPool::global().release(std::move(blob));
    Span s(&tr, "scatter_zone_into_region", Layer::kChunking);
    if (!out) {
      Shape shape{std::span<const std::size_t>(region.shape)};
      out = zone.dtype() == DType::kFloat32
                ? Field(index.meta.name, NdArray<float>(shape))
                : Field(index.meta.name, NdArray<double>(shape));
    }
    scatter_zone_into_region(
        zone, static_cast<std::size_t>(index.zones[zi].row_start), region,
        *out);
  }
  finish_reader(tr, reader, wire);
  EBLCIO_CHECK_STREAM(out.has_value(), "replay: region covers no zones");
  res.zones = covering.size();
  res.field = std::move(*out);
  return res;
}

}  // namespace e2e
