#include "compressors/chunking.h"

#include <algorithm>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

template <typename T>
std::vector<Field> split_impl(const Field& field, int nchunks) {
  const NdArray<T>& arr = field.as<T>();
  const std::size_t d0 = arr.shape().dim(0);
  const int chunks = static_cast<int>(
      std::min<std::size_t>(d0, static_cast<std::size_t>(nchunks)));
  const std::size_t row_elems = arr.num_elements() / d0;

  std::vector<Field> out;
  out.reserve(chunks);
  for (int c = 0; c < chunks; ++c) {
    std::vector<std::size_t> dims = arr.shape().dims_vector();
    dims[0] = slab_rows(d0, chunks, c);
    NdArray<T> slab(Shape{std::span<const std::size_t>(dims)});
    std::memcpy(slab.data(),
                arr.data() + slab_row_start(d0, chunks, c) * row_elems,
                slab.size_bytes());
    out.emplace_back(field.name(), std::move(slab));
  }
  return out;
}

// The offset of slab_data's first element; see there for the checks.
std::size_t slab_offset(const Field& out, const BlobHeader& slab,
                        std::size_t row0) {
  const Shape& shape = out.shape();
  EBLCIO_CHECK_ARG(slab.dtype == out.dtype() &&
                       static_cast<int>(slab.dims.size()) == shape.ndims(),
                   "slab does not match its output");
  std::size_t row_elems = 1;
  for (int d = 1; d < shape.ndims(); ++d) {
    EBLCIO_CHECK_ARG(slab.dims[d] == shape.dim(d),
                     "slab does not match its output");
    row_elems *= shape.dim(d);
  }
  const std::size_t rows = shape.dim(0);
  EBLCIO_CHECK_ARG(slab.dims[0] >= 1 && row0 <= rows &&
                       slab.dims[0] <= rows - row0,
                   "slab rows fall outside its output");
  return row0 * row_elems;
}

}  // namespace

std::size_t slab_rows(std::size_t d0, int nchunks, int c) {
  return d0 / nchunks +
         (static_cast<std::size_t>(c) < d0 % nchunks ? 1 : 0);
}

std::size_t slab_row_start(std::size_t d0, int nchunks, int c) {
  const auto slabs = static_cast<std::size_t>(c);
  return slabs * (d0 / nchunks) + std::min<std::size_t>(slabs, d0 % nchunks);
}

std::vector<Field> split_slabs(const Field& field, int nchunks) {
  EBLCIO_CHECK_ARG(nchunks >= 1, "chunk count must be positive");
  if (field.dtype() == DType::kFloat32)
    return split_impl<float>(field, nchunks);
  return split_impl<double>(field, nchunks);
}

Field merge_slabs(const std::vector<Field>& slabs,
                  const std::vector<std::size_t>& dims,
                  const std::string& name) {
  EBLCIO_CHECK_ARG(!slabs.empty(), "no slabs to merge");
  BlobHeader slab;
  slab.codec = name;
  slab.dtype = slabs[0].dtype();
  slab.dims = dims;
  Field out = allocate_output(slab);
  std::vector<std::size_t> row0{0};
  for (const Field& s : slabs) {
    slab.dtype = s.dtype();
    slab.dims = s.shape().dims_vector();
    slab_offset(out, slab, row0.back());
    row0.push_back(row0.back() + slab.dims[0]);
  }
  EBLCIO_CHECK_ARG(row0.back() == dims[0], "slab merge size mismatch");
  auto* const dst = slab.dtype == DType::kFloat32
                        ? reinterpret_cast<std::byte*>(out.as<float>().data())
                        : reinterpret_cast<std::byte*>(out.as<double>().data());
  const std::size_t row_bytes = out.size_bytes() / dims[0];
  for (std::size_t i = 0; i < slabs.size(); ++i)
    std::memcpy(dst + row0[i] * row_bytes, slabs[i].bytes().data(),
                slabs[i].size_bytes());
  return out;
}

template <typename T>
T* slab_data(Field& out, const BlobHeader& slab, std::size_t row0) {
  const std::size_t offset = slab_offset(out, slab, row0);
  return out.as<T>().data() + offset;
}
template float* slab_data<float>(Field&, const BlobHeader&, std::size_t);
template double* slab_data<double>(Field&, const BlobHeader&, std::size_t);

Bytes compress_chunked(const BlobHeader& header, const Field& field,
                       const CompressOptions& opt,
                       const PayloadCompressFn& kernel) {
  Bytes out;
  header.encode(out);

  if (opt.threads <= 1 || field.shape().dim(0) < 2) {
    append_pod<std::uint8_t>(out, kLayoutSingle);
    Bytes payload = kernel(field, header, opt);
    append_pod<std::uint64_t>(out, payload.size());
    append_bytes(out, payload);
    return out;
  }

  auto slabs = split_slabs(field, opt.threads);
  std::vector<Bytes> blobs(slabs.size());
  CompressOptions serial_opt = opt;
  serial_opt.threads = 1;
  // parallel_for's deterministic block->pod mapping places slab i's
  // compress task on the pod that owns slab i's buffers.
  Executor& ex = opt.executor ? *opt.executor : Executor::global();
  parallel_for(slabs.size(), opt.threads, [&](std::size_t i) {
    BlobHeader slab_header = header;
    slab_header.dims = slabs[i].shape().dims_vector();
    blobs[i] = kernel(slabs[i], slab_header, serial_opt);
  }, ex);

  append_pod<std::uint8_t>(out, kLayoutChunked);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(blobs.size()));
  for (const Bytes& b : blobs) append_pod<std::uint64_t>(out, b.size());
  for (Bytes& b : blobs) {
    append_bytes(out, b);
    // Per-slab payloads are copied into the framed container; recycle
    // their allocations for the next chunked compression.
    BufferPool::global().release(std::move(b));
  }
  return out;
}

Field decompress_chunked(std::span<const std::byte> blob, int threads,
                         const PayloadDecompressFn& kernel) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const auto layout = r.read_pod<std::uint8_t>();

  std::vector<std::span<const std::byte>> payloads;
  if (layout == kLayoutSingle) {
    payloads.push_back(r.read_bytes(r.read_pod<std::uint64_t>()));
  } else {
    EBLCIO_CHECK_STREAM(layout == kLayoutChunked, "bad payload layout tag");
    const auto nchunks = r.read_pod<std::uint32_t>();
    // Each slab owns at least one row, and the size table must fit the
    // blob: a forged count fails here, before it sizes anything.
    EBLCIO_CHECK_STREAM(nchunks >= 1 && nchunks <= header.dims[0],
                        "bad chunk count");
    ByteReader sizes(r.read_bytes(nchunks * sizeof(std::uint64_t)));
    for (std::uint32_t i = 0; i < nchunks; ++i)
      payloads.push_back(r.read_bytes(sizes.read_pod<std::uint64_t>()));
  }

  Field out = allocate_output(header);
  const int n = static_cast<int>(payloads.size());
  parallel_for(payloads.size(), std::max(threads, 1), [&](std::size_t i) {
    const int c = static_cast<int>(i);
    BlobHeader slab = header;
    slab.dims[0] = slab_rows(header.dims[0], n, c);
    kernel(slab, payloads[i], out, slab_row_start(header.dims[0], n, c));
  });
  return out;
}

}  // namespace eblcio
