// Domain-decomposition parallelism for compressors, and slab placement.
//
// The OpenMP modes of SZ3/QoZ/SZx (and our fallback for others) split the
// field into contiguous slabs along its slowest-varying dimension, compress
// each slab independently with the codec's serial kernel, and concatenate
// the per-slab payloads behind a chunk table. This mirrors how the
// reference implementations parallelize (block/chunk independence),
// including the small compression-ratio loss from per-chunk entropy tables.
//
// Decompression runs the same split without a merge: a dim-0 slab is a
// contiguous row range of the field, so the output is allocated once and
// each slab kernel writes its own rows of it (checked by slab_data before
// the first write). Slab tasks write disjoint rows and need no lock.
#pragma once

#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "compressors/compressor.h"

namespace eblcio {

// Codec kernels operate on header+payload; the chunk container owns the
// framing. The header passed to a kernel carries the dims of the (sub)field
// it must handle and the absolute error bound for the *whole* field. A
// decompress kernel writes its slab into the rows of `out` from row0 on.
using PayloadCompressFn = std::function<Bytes(
    const Field& field, const BlobHeader& header, const CompressOptions&)>;
using PayloadDecompressFn =
    std::function<void(const BlobHeader& slab, std::span<const std::byte>,
                       Field& out, std::size_t row0)>;

// Payload layout tags written immediately after the BlobHeader.
inline constexpr std::uint8_t kLayoutSingle = 0;
inline constexpr std::uint8_t kLayoutChunked = 1;

// Splits `field` into at most `nchunks` slabs along dimension 0 (each slab
// keeps full extent in the remaining dimensions). Returns fewer chunks when
// dim0 is too small to split. Row distribution is deterministic so the
// decompressor can recompute slab shapes.
std::vector<Field> split_slabs(const Field& field, int nchunks);

// Rows assigned to slab `c` of `nchunks` when splitting extent `d0`, and
// the first of them.
std::size_t slab_rows(std::size_t d0, int nchunks, int c);
std::size_t slab_row_start(std::size_t d0, int nchunks, int c);

// Reassembles slabs split by split_slabs into one field shaped `dims`,
// checking every slab's rows and trailing dims before the first copy. No
// decoder in src/ uses it (each writes its rows of one output); it stays
// for the slab-by-slab replay in e2e_bench.
Field merge_slabs(const std::vector<Field>& slabs,
                  const std::vector<std::size_t>& dims,
                  const std::string& name);

// The first element of rows [row0, row0 + slab.dims[0]) of `out`, after
// checking that a slab of slab.dtype shaped slab.dims fits there (same
// dtype, rank and trailing dims). Throws InvalidArgument otherwise.
template <typename T>
T* slab_data(Field& out, const BlobHeader& slab, std::size_t row0);

// Compresses with slab parallelism: runs `kernel` on each slab as tasks on
// the shared executor (at most opt.threads concurrent slab tasks). Falls
// back to a single chunk when opt.threads <= 1 or the field cannot be
// split.
Bytes compress_chunked(const BlobHeader& header, const Field& field,
                       const CompressOptions& opt,
                       const PayloadCompressFn& kernel);

// Decompresses blobs produced by compress_chunked (either layout; the
// single layout is one slab at row 0) into one output.
Field decompress_chunked(std::span<const std::byte> blob, int threads,
                         const PayloadDecompressFn& kernel);

}  // namespace eblcio
