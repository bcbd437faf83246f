#include "workload.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/rng.h"
#include "data/generators.h"

namespace e2e {

using namespace eblcio;

const WorkloadSpec& workload(const std::string& name) {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec sz3;
    sz3.name = "ckpt_sz3";
    sz3.codec = "SZ3";
    sz3.error_bound = 1e-3;
    all.push_back(sz3);

    WorkloadSpec sz2;
    sz2.name = "serve_sz2";
    sz2.codec = "SZ2";
    sz2.error_bound = 1e-3;
    sz2.queries_per_step = 8;
    all.push_back(sz2);
    return all;
  }();
  for (const WorkloadSpec& w : kAll)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

PipelineConfig pipeline_config(const WorkloadSpec& w) {
  PipelineConfig pc;
  pc.codec = w.codec;
  pc.error_bound = w.error_bound;
  pc.threads = 1;
  pc.io_library = "HDF5";
  return pc;
}

StreamConfig stream_config(const WorkloadSpec& w) {
  StreamConfig sc;
  sc.slabs = w.slabs;
  return sc;
}

Field base_field(const WorkloadSpec& w, int k) {
  Field f = generate_nyx(w.dims, 1000003ULL * static_cast<unsigned>(k + 1));
  f.set_name("NYX_" + std::to_string(k));
  return f;
}

Field rolled_field(const Field& base, std::uint64_t seed, int id) {
  const std::vector<std::size_t> d = base.shape().dims_vector();
  if (d.size() != 3) throw std::invalid_argument("rolled_field needs 3D");
  Rng rng(seed * 6151ULL + static_cast<unsigned>(id));
  std::size_t shift[3];
  for (int a = 0; a < 3; ++a) shift[a] = rng.next_u64() % d[a];
  const NdArray<float>& src = base.as<float>();
  NdArray<float> dst(src.shape());
  float* out = dst.data();
  const std::size_t head = d[2] - shift[2];
  for (std::size_t i = 0; i < d[0]; ++i)
    for (std::size_t j = 0; j < d[1]; ++j) {
      const float* row =
          src.data() +
          (((i + shift[0]) % d[0]) * d[1] + (j + shift[1]) % d[1]) * d[2];
      std::memcpy(out, row + shift[2], head * sizeof(float));
      std::memcpy(out + head, row, shift[2] * sizeof(float));
      out += d[2];
    }
  return Field(base.name(), std::move(dst));
}

std::vector<Region> make_queries(const WorkloadSpec& w, std::uint64_t seed,
                                 int id) {
  Rng rng(seed * 7919ULL + 104729ULL * static_cast<unsigned>(id + 1));
  const auto pick = [&rng](std::size_t extent, std::size_t len) {
    return static_cast<std::size_t>(rng.next_u64() % (extent - len + 1));
  };
  std::vector<Region> out;
  for (int q = 0; q < w.queries_per_step; ++q) {
    Region r;
    r.start.assign(w.dims.size(), 0);
    r.shape = w.dims;
    if (q % 2 == 0) {
      r.shape[0] = w.dims[0] / 8;
      r.start[0] = pick(w.dims[0], r.shape[0]);
    } else {
      for (std::size_t d = 0; d < w.dims.size(); ++d) {
        r.shape[d] = 16;
        r.start[d] = pick(w.dims[d], 16);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

int self_inclusive_clients(const PfsSimulator& pfs) {
  return std::max(1,
                  pfs.concurrent_writers() + pfs.concurrent_readers() + 1);
}

bool same_field(const Field& a, const Field& b) {
  if (a.dtype() != b.dtype()) return false;
  if (a.shape().dims_vector() != b.shape().dims_vector()) return false;
  const auto x = a.bytes();
  const auto y = b.bytes();
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size()) == 0);
}

namespace {

template <typename T>
Field extract_impl(const Field& field, const Region& region) {
  const NdArray<T>& src = field.as<T>();
  const std::vector<std::size_t> dims = src.shape().dims_vector();
  NdArray<T> dst(Shape{std::span<const std::size_t>(region.shape)});
  const std::size_t nd = dims.size();
  // Row-major strides of the source; copy the region one innermost run at
  // a time, walking the outer indices like an odometer.
  std::vector<std::size_t> stride(nd, 1);
  for (std::size_t d = nd - 1; d > 0; --d) stride[d - 1] = stride[d] * dims[d];
  const std::size_t run = region.shape[nd - 1];
  std::vector<std::size_t> idx(nd, 0);
  T* out = dst.data();
  for (std::size_t copied = 0; copied < dst.num_elements(); copied += run) {
    std::size_t off = 0;
    for (std::size_t d = 0; d < nd; ++d)
      off += (region.start[d] + idx[d]) * stride[d];
    std::memcpy(out + copied, src.data() + off, run * sizeof(T));
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++idx[d] < region.shape[d]) break;
      idx[d] = 0;
    }
  }
  return Field(field.name(), std::move(dst));
}

}  // namespace

Field extract_region(const Field& field, const Region& region) {
  validate_region(region, field.shape().dims_vector());
  if (field.dtype() == DType::kFloat32)
    return extract_impl<float>(field, region);
  return extract_impl<double>(field, region);
}

}  // namespace e2e
