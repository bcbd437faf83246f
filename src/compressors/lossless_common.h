// Shared plumbing for the lossless baselines: header construction and
// rebuilding a typed Field from exact raw bytes.
#pragma once

#include <cstring>

#include "common/error.h"
#include "compressors/compressor.h"

namespace eblcio {

inline BlobHeader lossless_header(const std::string& codec,
                                  const Field& field,
                                  const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = field.dtype();
  h.dims = field.shape().dims_vector();
  h.abs_error_bound = 0.0;
  h.requested_mode = opt.mode;
  h.requested_bound = 0.0;
  return h;
}

inline Field field_from_bytes(const BlobHeader& header,
                              std::span<const std::byte> raw) {
  EBLCIO_CHECK_STREAM(
      raw.size() == header.num_elements() * dtype_size(header.dtype),
      "lossless: payload size mismatch");
  Field out = allocate_output(header);
  if (header.dtype == DType::kFloat32)
    std::memcpy(out.as<float>().data(), raw.data(), raw.size());
  else
    std::memcpy(out.as<double>().data(), raw.data(), raw.size());
  return out;
}

}  // namespace eblcio
