// SZ2 framing over the shared block engine (compressors/block_core.h):
// the prediction/quantization kernels this file used to own now live
// behind block_compress/block_decompress, and SZ2 is the
// (kLorenzoRegression, kLinearRecip) configuration of them — the same
// kernels the composed codec framework drives with other component pairs.
// The slab/stream framing below is frozen by the pinned reference blobs.
#include "compressors/sz2.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "parallel/executor.h"

namespace eblcio {

Bytes Sz2Compressor::compress(const Field& field, const CompressOptions& opt) {
  const BlobHeader header = lossy_header(name(), field, opt);
  if (opt.threads > 1 && !supports(field, opt))
    throw Unsupported(
        "the OpenMP version of SZ2 does not support 1D or 4D data");

  // Stage 1 (parallel over slabs): prediction + quantization. A single
  // slab is the whole field — compress it in place instead of paying
  // split_slabs' full-field copy for a no-op split.
  const int nslabs = static_cast<int>(
      std::min<std::size_t>(field.shape().dim(0),
                            static_cast<std::size_t>(std::max(opt.threads, 1))));
  std::vector<BlockEncoding> encs(static_cast<std::size_t>(nslabs));
  if (nslabs == 1) {
    encs[0] = block_compress(field, header.abs_error_bound,
                             BlockPredictor::kLorenzoRegression,
                             QuantizerId::kLinearRecip, 0.0);
  } else {
    const auto slabs = split_slabs(field, nslabs);
    parallel_for(slabs.size(), nslabs, [&](std::size_t i) {
      encs[i] = block_compress(slabs[i], header.abs_error_bound,
                               BlockPredictor::kLorenzoRegression,
                               QuantizerId::kLinearRecip, 0.0);
    });
  }

  // Stage 2 (serial, as in the reference implementation): one Huffman +
  // lossless pass over the concatenated code stream. One slab's codes are
  // already the whole stream; concatenate only when there are several.
  std::vector<std::uint32_t> multi_codes;
  if (encs.size() > 1) {
    std::size_t total = 0;
    for (const auto& e : encs) total += e.codes.size();
    multi_codes.reserve(total);
    for (const auto& e : encs)
      multi_codes.insert(multi_codes.end(), e.codes.begin(), e.codes.end());
  }
  const std::vector<std::uint32_t>& all_codes =
      encs.size() > 1 ? multi_codes : encs[0].codes;

  Bytes out;
  header.encode(out);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(encs.size()));
  for (const auto& e : encs) {
    append_pod<std::uint64_t>(out, e.codes.size());
    append_sized(out, e.mode_bits);
    append_sized(out, e.coeffs);
    append_sized(out, e.unpred);
  }
  Bytes code_blob = encode_code_stream(all_codes, kQuantAlphabet);
  append_bytes(out, code_blob);
  BufferPool::global().release(std::move(code_blob));
  return out;
}

Field Sz2Compressor::decompress(std::span<const std::byte> blob,
                                int threads) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const auto nslabs = r.read_pod<std::uint32_t>();
  // Each slab owns a row and 4 u64 fields (code count, 3 stream sizes): a
  // count past either bound is forged and would size the table below.
  EBLCIO_CHECK_STREAM(nslabs >= 1 && nslabs <= header.dims[0] &&
                          nslabs <= r.remaining().size() /
                                        (4 * sizeof(std::uint64_t)),
                      "SZ2: bad slab count");

  struct Slab {
    BlobHeader header;  // the slab's dims
    std::size_t row0 = 0;
    std::span<const std::byte> mode_bits, coeffs, unpred;
  };
  std::vector<Slab> slabs(nslabs);
  for (std::uint32_t i = 0; i < nslabs; ++i) {
    Slab& m = slabs[i];
    m.header = header;
    m.header.dims[0] = slab_rows(header.dims[0], nslabs, static_cast<int>(i));
    m.row0 = slab_row_start(header.dims[0], nslabs, static_cast<int>(i));
    // The block engine emits one code per element, so slab i's codes are
    // those of its rows; any other count is corruption.
    EBLCIO_CHECK_STREAM(r.read_pod<std::uint64_t>() == m.header.num_elements(),
                        "SZ2: code stream size mismatch");
    m.mode_bits = read_sized(r);
    m.coeffs = read_sized(r);
    m.unpred = read_sized(r);
  }
  // Serial entropy decode of the global code stream.
  const auto codes = decode_code_stream(r);
  EBLCIO_CHECK_STREAM(codes.size() == header.num_elements(),
                      "SZ2: code stream size mismatch");

  // Parallel per-slab reconstruction, each slab into its rows of `out`.
  Field out = allocate_output(header);
  const std::size_t row_elems = header.num_elements() / header.dims[0];
  parallel_for(nslabs, std::max(threads, 1), [&](std::size_t i) {
    const Slab& m = slabs[i];
    ByteReader coeffs(m.coeffs);
    ByteReader unpred(m.unpred);
    block_decompress_rows(
        m.header, BlockPredictor::kLorenzoRegression,
        QuantizerId::kLinearRecip, 0.0,
        std::span<const std::uint32_t>(codes).subspan(
            m.row0 * row_elems, m.header.num_elements()),
        m.mode_bits, coeffs, unpred, out, m.row0);
  });
  return out;
}

}  // namespace eblcio
