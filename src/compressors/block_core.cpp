#include "compressors/block_core.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "compressors/chunking.h"

namespace eblcio {
namespace {

// All fields are processed through a uniform 4D view: leading dimensions of
// extent 1 are prepended, and the Lorenzo inclusion-exclusion masks over
// size-1 dimensions vanish naturally.
struct Geometry {
  std::array<std::size_t, 4> dim{1, 1, 1, 1};
  std::array<std::size_t, 4> stride{};
  std::array<std::size_t, 4> block{1, 1, 1, 1};   // block edge per dim
  std::array<std::size_t, 4> nblocks{1, 1, 1, 1}; // block grid
  int real_dims = 1;
  std::vector<unsigned> lorenzo_masks;  // nonzero masks over real dims

  static Geometry from_dims(const std::vector<std::size_t>& dims) {
    Geometry g;
    g.real_dims = static_cast<int>(dims.size());
    const int pad = 4 - g.real_dims;
    for (int i = 0; i < g.real_dims; ++i) g.dim[pad + i] = dims[i];

    // Block edges per dimensionality, as in SZ2 (256 / 16x16 / 6^3).
    static constexpr std::array<std::array<std::size_t, 4>, 4> kEdges{{
        {1, 1, 1, 256},
        {1, 1, 16, 16},
        {1, 6, 6, 6},
        {6, 6, 6, 6},
    }};
    g.block = kEdges[g.real_dims - 1];

    std::size_t acc = 1;
    for (int d = 3; d >= 0; --d) {
      g.stride[d] = acc;
      acc *= g.dim[d];
    }
    for (int d = 0; d < 4; ++d)
      g.nblocks[d] = (g.dim[d] + g.block[d] - 1) / g.block[d];

    // Lorenzo neighbour masks: subsets of the real dimensions.
    for (unsigned mask = 1; mask < 16; ++mask) {
      bool ok = true;
      for (int d = 0; d < 4; ++d)
        if ((mask & (1u << d)) && g.dim[d] == 1) ok = false;
      if (ok) g.lorenzo_masks.push_back(mask);
    }
    return g;
  }

  std::size_t num_elements() const {
    return dim[0] * dim[1] * dim[2] * dim[3];
  }
  std::size_t total_blocks() const {
    return nblocks[0] * nblocks[1] * nblocks[2] * nblocks[3];
  }
};

// The Lorenzo stencil for one row (fixed c0..c2, c3 varying): the (offset,
// sign) pairs of every mask whose neighbours exist, in mask order — the
// same accumulation order as walking lorenzo_masks and skipping the
// out-of-range ones, so predictions are bit-identical to the per-element
// mask walk this replaces. Rows split into a head stencil (first element
// when its c3 coordinate is 0) and a tail stencil (c3 > 0); hoisting the
// boundary logic here leaves the per-element loop a fused multiply-add
// sweep over precomputed offsets.
struct RowStencil {
  std::array<std::pair<std::size_t, double>, 15> head_terms;
  std::array<std::pair<std::size_t, double>, 15> tail_terms;
  int head_n = 0;
  int tail_n = 0;
};

RowStencil row_stencil(const Geometry& g,
                       const std::array<std::size_t, 4>& row) {
  RowStencil st;
  for (unsigned mask : g.lorenzo_masks) {
    bool valid_fixed = true;  // dims 0..2 (fixed along the row)
    std::size_t off = 0;
    for (int d = 0; d < 3; ++d) {
      if (!(mask & (1u << d))) continue;
      if (row[d] == 0) {
        valid_fixed = false;
        break;
      }
      off += g.stride[d];
    }
    if (!valid_fixed) continue;
    const bool touches_d3 = (mask & (1u << 3)) != 0;
    if (touches_d3) off += g.stride[3];
    const double sign = (std::popcount(mask) & 1) ? 1.0 : -1.0;
    st.tail_terms[st.tail_n++] = {off, sign};
    if (!touches_d3) st.head_terms[st.head_n++] = {off, sign};
  }
  return st;
}

// Prediction from a row stencil: sign-weighted neighbour sum over either
// the reconstruction buffer (double) or raw samples (T). Multiplying by
// the exact +-1.0 sign equals the branchy add/subtract bit-for-bit.
//
// The compile-time-N body lets the compiler fully unroll and schedule the
// gather+fma chain; the runtime wrapper dispatches on the term counts a
// Lorenzo stencil can actually have on interior rows (1/3/7/15 for
// 1D/2D/3D/4D). Identical sequential accumulation order, so the dispatch
// is bit-invisible.
template <int N, typename V>
inline double stencil_predict_n(
    const std::array<std::pair<std::size_t, double>, 15>& terms,
    const V* vals, std::size_t lin) {
  double pred = 0.0;
  for (int k = 0; k < N; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

template <typename V>
inline double stencil_predict(
    const std::array<std::pair<std::size_t, double>, 15>& terms, int n,
    const V* vals, std::size_t lin) {
  switch (n) {
    case 7: return stencil_predict_n<7>(terms, vals, lin);
    case 3: return stencil_predict_n<3>(terms, vals, lin);
    case 15: return stencil_predict_n<15>(terms, vals, lin);
    case 1: return stencil_predict_n<1>(terms, vals, lin);
    default: break;
  }
  double pred = 0.0;
  for (int k = 0; k < n; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

// row_stencil only reads `row` through row[d] == 0 tests, so a stencil is
// fully determined by the 4-bit zero-pattern of the row base — 16
// possibilities. Rebuilding per boundary row was ~16% of compress-slab
// time; this table replaces ~8k rebuilds per 64^3 field with a lookup.
// The entry contents are byte-identical to a fresh row_stencil call, so
// predictions are unchanged. Index 0 (no zero coordinate) is the full
// interior stencil; rows in size-1 dimensions always carry their zero
// bit, and those dimensions never appear in lorenzo_masks, so the lookup
// stays consistent for them too.
struct StencilCache {
  std::array<RowStencil, 16> by_sig;

  explicit StencilCache(const Geometry& g) {
    for (unsigned sig = 0; sig < 16; ++sig) {
      std::array<std::size_t, 4> fake_row;
      for (int d = 0; d < 4; ++d)
        fake_row[d] = (sig & (1u << d)) ? 0 : 1;
      by_sig[sig] = row_stencil(g, fake_row);
    }
  }

  static unsigned signature(const std::array<std::size_t, 4>& row) {
    unsigned sig = 0;
    for (int d = 0; d < 4; ++d)
      if (row[d] == 0) sig |= 1u << d;
    return sig;
  }

  const RowStencil& for_row(const std::array<std::size_t, 4>& row) const {
    return by_sig[signature(row)];
  }

  // Visits one d3 row of Lorenzo predictions: head stencil for the global
  // first element (nothing behind it along d3), tail for the rest.
  // Exactly the split the original SZ2 walker performed inline. Every
  // prediction is one fused sum over its stencil, in term order, read
  // from `recon` — compress and decode run this same loop.
  //
  // The walk once split each row instead: a first pass summed the terms
  // ahead of the offset-1 {d3} term for the whole row into a stack array,
  // and a second pass finished each sum from the previous reconstruction,
  // carried in a register. That shortens the element-to-element add
  // chain, but this kernel is not bound by that chain. block_decompress
  // over 16 zones of 8x128x128 NYX took 43.5-45.0 ms split and 28.4-29.9
  // ms fused and decoding into the output (GCC 12.2 -O2, one pinned core
  // of a shared 4-vCPU VM, 30-iteration medians, 4 interleaved rounds);
  // block_compress went from 90.1-93.5 to 83.5-90.3 ms. The extra pass
  // and its stack traffic cost more than the shorter chain saved. A
  // register-resident multi-row wavefront measured no faster either.
  template <typename V, typename Fn>
  void visit_row(const Geometry& g, const std::array<std::size_t, 4>& row,
                 std::size_t base, std::size_t ext3, const V* recon,
                 Fn&& fn) const {
    const RowStencil& st = for_row(row);
    std::size_t c3 = 0;
    if (row[3] == 0 && g.dim[3] > 1 && ext3 > 0) {
      fn(base, stencil_predict(st.head_terms, st.head_n, recon, base));
      c3 = 1;
    }
    for (; c3 < ext3; ++c3) {
      const std::size_t lin = base + c3;
      fn(lin, stencil_predict(st.tail_terms, st.tail_n, recon, lin));
    }
  }
};

// --- 2-layer Lorenzo -------------------------------------------------------
//
// The order-2 Lorenzo predictor extrapolates from a 2-deep neighbour cube:
// for offsets k in {0,1,2}^d \ {0}, the neighbour at distance k carries
// coefficient (-1)^(|k|_1 + 1) * prod_d C(2, k_d) — the expansion of
// 1 - prod_d (1 - E_d^-1)^2 where E_d^-1 shifts back along dim d. In 1D
// this is the familiar 2*x[i-1] - x[i-2] linear extrapolation; the
// coefficients sum to 1 in every dimensionality. Neighbours that fall
// outside the field are dropped with their coefficients kept, the same
// boundary convention as the 1-layer stencil above.
struct L2RowStencil {
  // Up to 3^4 - 1 = 80 terms; head0 applies at global d3 coordinate 0,
  // head1 at coordinate 1 (no / only distance-1 neighbours along d3),
  // tail from coordinate 2 on.
  std::array<std::pair<std::size_t, double>, 80> head0_terms;
  std::array<std::pair<std::size_t, double>, 80> head1_terms;
  std::array<std::pair<std::size_t, double>, 80> tail_terms;
  int head0_n = 0;
  int head1_n = 0;
  int tail_n = 0;
};

template <typename V>
inline double l2_predict(
    const std::array<std::pair<std::size_t, double>, 80>& terms, int n,
    const V* vals, std::size_t lin) {
  double pred = 0.0;
  for (int k = 0; k < n; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

// Like StencilCache, keyed by how deep each *fixed* dimension's row base
// sits: min(row[d], 2) per dim 0..2 -> base-3 signature, 27 entries. The
// varying d3 depth is handled by the head0/head1/tail split inside each
// entry.
struct Stencil2Cache {
  std::array<L2RowStencil, 27> by_sig;

  explicit Stencil2Cache(const Geometry& g) {
    static constexpr std::array<double, 3> kBinom{1.0, 2.0, 1.0};
    for (unsigned sig = 0; sig < 27; ++sig) {
      std::array<std::size_t, 3> depth{sig / 9 % 3, sig / 3 % 3, sig % 3};
      L2RowStencil& st = by_sig[sig];
      std::array<std::size_t, 4> k{};
      for (k[0] = 0; k[0] <= 2; ++k[0])
        for (k[1] = 0; k[1] <= 2; ++k[1])
          for (k[2] = 0; k[2] <= 2; ++k[2])
            for (k[3] = 0; k[3] <= 2; ++k[3]) {
              const std::size_t order = k[0] + k[1] + k[2] + k[3];
              if (order == 0) continue;
              bool valid = true;
              std::size_t off = 0;
              double coeff = (order & 1) ? 1.0 : -1.0;
              for (int d = 0; d < 4; ++d) {
                if (k[d] == 0) continue;
                // Fixed dims: the row base must be at least k[d] deep.
                // All dims: a size-1 dimension has no neighbours.
                if ((d < 3 && depth[d] < k[d]) || g.dim[d] == 1) {
                  valid = false;
                  break;
                }
                off += k[d] * g.stride[d];
                coeff *= kBinom[k[d]];
              }
              if (!valid) continue;
              st.tail_terms[st.tail_n++] = {off, coeff};
              if (k[3] <= 1) st.head1_terms[st.head1_n++] = {off, coeff};
              if (k[3] == 0) st.head0_terms[st.head0_n++] = {off, coeff};
            }
    }
  }

  static unsigned signature(const std::array<std::size_t, 4>& row) {
    unsigned sig = 0;
    for (int d = 0; d < 3; ++d)
      sig = sig * 3 + static_cast<unsigned>(std::min<std::size_t>(row[d], 2));
    return sig;
  }

  template <typename V, typename Fn>
  void visit_row(const Geometry& g, const std::array<std::size_t, 4>& row,
                 std::size_t base, std::size_t ext3, const V* recon,
                 Fn&& fn) const {
    const L2RowStencil& st = by_sig[signature(row)];
    std::size_t c3 = 0;
    if (g.dim[3] > 1) {
      // Block origins along d3 are multiples of the block edge, so only
      // the first block's rows can contain the global coordinates 0 and 1.
      if (row[3] == 0 && c3 < ext3) {
        fn(base, l2_predict(st.head0_terms, st.head0_n, recon, base));
        ++c3;
      }
      if (row[3] + c3 == 1 && c3 < ext3) {
        fn(base + c3,
           l2_predict(st.head1_terms, st.head1_n, recon, base + c3));
        ++c3;
      }
    }
    for (; c3 < ext3; ++c3) {
      const std::size_t lin = base + c3;
      fn(lin, l2_predict(st.tail_terms, st.tail_n, recon, lin));
    }
  }
};

struct RegressionCoeffs {
  float b0 = 0.f;
  std::array<float, 4> slope{};  // per uniform-4D dim (zeros for unit dims)
};

// Kernel state shared between the per-block passes.
struct BlockRef {
  std::array<std::size_t, 4> origin;
  std::array<std::size_t, 4> extent;
};

// Enumerates blocks in row-major block-grid order. Every Lorenzo neighbour
// (distance 1 or 2, any dim subset) lives at coordinates componentwise <=
// the element's with at least one strictly smaller, so lexicographic block
// order + row-major order inside a block visits each neighbour before its
// dependent — for both stencil orders.
std::vector<BlockRef> enumerate_blocks(const Geometry& g) {
  std::vector<BlockRef> blocks;
  blocks.reserve(g.total_blocks());
  std::array<std::size_t, 4> b{};
  for (b[0] = 0; b[0] < g.nblocks[0]; ++b[0])
    for (b[1] = 0; b[1] < g.nblocks[1]; ++b[1])
      for (b[2] = 0; b[2] < g.nblocks[2]; ++b[2])
        for (b[3] = 0; b[3] < g.nblocks[3]; ++b[3]) {
          BlockRef ref;
          for (int d = 0; d < 4; ++d) {
            ref.origin[d] = b[d] * g.block[d];
            ref.extent[d] =
                std::min(g.block[d], g.dim[d] - ref.origin[d]);
          }
          blocks.push_back(ref);
        }
  return blocks;
}

// Linear index of the row base (c3 = 0) for local row coords `c` inside
// `blk`; the d3 stride is 1 by construction, so rows advance unit-stride.
inline std::size_t row_base(const Geometry& g, const BlockRef& blk,
                            const std::array<std::size_t, 4>& c) {
  return (blk.origin[0] + c[0]) * g.stride[0] +
         (blk.origin[1] + c[1]) * g.stride[1] +
         (blk.origin[2] + c[2]) * g.stride[2] + blk.origin[3];
}

// Least-squares plane fit over a block of raw values. The data-independent
// moments (element count, coordinate sums, squared-coordinate sums) are
// sums of small integers — exact in double in any order — so they come
// from closed forms; only the data moments accumulate per element, in the
// original element-then-dimension order so sum_x / sum_ux stay
// bit-identical to the fused loop this replaces.
template <typename T>
RegressionCoeffs fit_regression(const Geometry& g, const T* data,
                                const BlockRef& blk) {
  RegressionCoeffs rc;
  const double n = static_cast<double>(blk.extent[0] * blk.extent[1] *
                                       blk.extent[2] * blk.extent[3]);
  std::array<double, 4> sum_u{}, sum_uu{};
  for (int d = 0; d < 4; ++d) {
    const double e = static_cast<double>(blk.extent[d]);
    const double others = n / e;
    // sum over c_d of c_d, and of c_d^2, times the count of other coords.
    sum_u[d] = others * (e * (e - 1.0) / 2.0);
    sum_uu[d] = others * ((e - 1.0) * e * (2.0 * e - 1.0) / 6.0);
  }

  double sum_x = 0.0;
  std::array<double, 4> sum_ux{};
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; ++c[2]) {
        std::size_t lin = row_base(g, blk, c);
        const double u0 = static_cast<double>(c[0]);
        const double u1 = static_cast<double>(c[1]);
        const double u2 = static_cast<double>(c[2]);
        for (c[3] = 0; c[3] < blk.extent[3]; ++c[3], ++lin) {
          const double x = static_cast<double>(data[lin]);
          sum_x += x;
          sum_ux[0] += u0 * x;
          sum_ux[1] += u1 * x;
          sum_ux[2] += u2 * x;
          sum_ux[3] += static_cast<double>(c[3]) * x;
        }
      }
  const double mean_x = sum_x / n;
  double b0 = mean_x;
  for (int d = 0; d < 4; ++d) {
    const double mean_u = sum_u[d] / n;
    const double var_u = sum_uu[d] / n - mean_u * mean_u;
    const double cov = sum_ux[d] / n - mean_u * mean_x;
    const double slope = var_u > 1e-12 ? cov / var_u : 0.0;
    rc.slope[d] = static_cast<float>(slope);
    b0 -= slope * mean_u;
  }
  rc.b0 = static_cast<float>(b0);
  return rc;
}

// Decides the per-block predictor by comparing sampled absolute residuals
// of raw-data Lorenzo vs. the regression plane (SZ2's selection heuristic).
template <typename T>
bool regression_wins(const Geometry& g, const StencilCache& stencils,
                     const T* data, const BlockRef& blk,
                     const RegressionCoeffs& rc) {
  double err_lorenzo = 0.0, err_reg = 0.0;
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; c[2] += 2) {
        const std::array<std::size_t, 4> row{
            blk.origin[0] + c[0], blk.origin[1] + c[1],
            blk.origin[2] + c[2], blk.origin[3]};
        const RowStencil& st = stencils.for_row(row);
        // regression_predict association: ((b0+s0c0)+s1c1)+s2c2, then +s3c3.
        const double reg_row =
            ((rc.b0 + static_cast<double>(rc.slope[0]) *
                          static_cast<double>(c[0])) +
             static_cast<double>(rc.slope[1]) * static_cast<double>(c[1])) +
            static_cast<double>(rc.slope[2]) * static_cast<double>(c[2]);
        const std::size_t base = row_base(g, blk, c);
        for (c[3] = 0; c[3] < blk.extent[3]; c[3] += 2) {  // sample stride 2
          const std::size_t lin = base + c[3];
          const double x = static_cast<double>(data[lin]);
          // Raw-data Lorenzo residual (approximation to the real residual).
          const bool head = row[3] + c[3] == 0 && g.dim[3] > 1;
          const double pred =
              head ? stencil_predict(st.head_terms, st.head_n, data, lin)
                   : stencil_predict(st.tail_terms, st.tail_n, data, lin);
          err_lorenzo += std::fabs(x - pred);
          err_reg +=
              std::fabs(x - (reg_row + static_cast<double>(rc.slope[3]) *
                                           static_cast<double>(c[3])));
        }
      }
  return err_reg < err_lorenzo;
}

// Walks one block in canonical element order, computing every element's
// prediction (regression plane or Lorenzo stencil over `recon`) and
// invoking fn(lin, pred) — except for regression rows, which are handed
// whole to reg_row_fn(base, row0, s3, n) because the regression plane has
// no reconstruction feedback: the callee may process the row with a
// stride-1 vectorized kernel as long as each element's prediction is
// evaluated as the bit-identical expression row0 + s3 * (double)k.
// Compress and decompress both iterate through this single walker: the
// round-trip contract requires the two sides to evaluate predictions
// bit-identically, so the shared code path makes that symmetry structural
// rather than maintained by hand (the callbacks are the only
// side-specific part — quantize+record vs recover+materialize). The
// stencil cache type selects the Lorenzo order (StencilCache = 1-layer,
// Stencil2Cache = 2-layer); its visit_row owns the head/tail split.
template <typename T, typename Cache, typename Fn, typename RegRowFn>
void walk_block_predictions(const Geometry& g, const BlockRef& blk,
                            const Cache& stencils, bool reg,
                            const RegressionCoeffs& rc, const T* recon,
                            Fn&& fn, RegRowFn&& reg_row_fn) {
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; ++c[2]) {
        // Per-element work is hoisted to the row: the linear index
        // advances unit-stride, the predictor branch resolves once, and
        // boundary handling collapses into the precomputed stencils.
        const std::size_t base = row_base(g, blk, c);
        const std::size_t ext3 = blk.extent[3];
        if (reg) {
          // regression association: ((b0+s0c0)+s1c1)+s2c2, then +s3c3.
          const double reg_row =
              ((rc.b0 + static_cast<double>(rc.slope[0]) *
                            static_cast<double>(c[0])) +
               static_cast<double>(rc.slope[1]) *
                   static_cast<double>(c[1])) +
              static_cast<double>(rc.slope[2]) * static_cast<double>(c[2]);
          const double s3 = static_cast<double>(rc.slope[3]);
          reg_row_fn(base, reg_row, s3, ext3);
        } else {
          const std::array<std::size_t, 4> row{
              blk.origin[0] + c[0], blk.origin[1] + c[1],
              blk.origin[2] + c[2], blk.origin[3]};
          stencils.visit_row(g, row, base, ext3, recon, fn);
        }
      }
}

// Which blocks use the regression plane, given the predictor mode.
// kLorenzoRegression restricts the per-block choice to 2D/3D exactly as
// SZ2 does; kRegression fits every block; the pure Lorenzo modes none.
bool regression_allowed(BlockPredictor pred, int real_dims) {
  switch (pred) {
    case BlockPredictor::kLorenzoRegression:
      return real_dims == 2 || real_dims == 3;
    case BlockPredictor::kRegression:
      return true;
    default:
      return false;
  }
}

// Reconstruction scratch backed by the global BufferPool. The block
// kernels run once per slab/zone, and a fresh multi-megabyte vector per
// call is typically served straight from the OS by the allocator — an
// mmap round trip plus a page fault for every 4 KiB touched, paid again
// on every call. Recycling the allocation keeps the scratch's pages
// resident across calls. Pooled buffers come back cleared, so resize()
// zero-fills exactly like the value-initialized vector it replaces.
template <typename V>
class PooledScratch {
 public:
  explicit PooledScratch(std::size_t n)
      : buf_(BufferPool::global().acquire(n * sizeof(V))) {
    buf_.resize(n * sizeof(V));
  }
  ~PooledScratch() { BufferPool::global().release(std::move(buf_)); }
  PooledScratch(const PooledScratch&) = delete;
  PooledScratch& operator=(const PooledScratch&) = delete;
  V* data() { return reinterpret_cast<V*>(buf_.data()); }

 private:
  Bytes buf_;
};

template <typename T, typename Q, typename Cache>
BlockEncoding compress_impl(const NdArray<T>& arr, const Q& quant,
                            BlockPredictor pred) {
  const Geometry g = Geometry::from_dims(arr.shape().dims_vector());
  const T* data = arr.data();
  const bool reg_allowed = regression_allowed(pred, g.real_dims);
  const bool reg_always = pred == BlockPredictor::kRegression;

  BlockEncoding enc;
  enc.codes.resize(g.num_elements());
  std::uint32_t* code_dst = enc.codes.data();
  // recon holds values the decompressor materializes: every entry is the
  // T-cast of a prediction+residual, hence exactly T-representable — storing
  // T halves the buffer bandwidth with bit-identical reads.
  using ReconT = T;
  PooledScratch<ReconT> recon_scratch(g.num_elements());
  ReconT* const recon = recon_scratch.data();

  // All boundary stencils precomputed once; rows index by depth signature.
  const Cache stencils(g);

  const auto blocks = enumerate_blocks(g);
  enc.mode_bits.assign((blocks.size() + 7) / 8, std::byte{0});

  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const BlockRef& blk = blocks[bi];
    RegressionCoeffs rc;
    bool reg = false;
    if (reg_allowed) {
      rc = fit_regression(g, data, blk);
      if (reg_always) {
        reg = true;
      } else if constexpr (std::is_same_v<Cache, StencilCache>) {
        // Per-block selection compares against the 1-layer stencil (the
        // legacy mode is only ever instantiated with it).
        reg = regression_wins(g, stencils, data, blk, rc);
      }
      if (reg) {
        enc.mode_bits[bi / 8] |= static_cast<std::byte>(1u << (bi % 8));
        append_pod(enc.coeffs, rc);
      }
    }
    walk_block_predictions(
        g, blk, stencils, reg, rc, recon,
        [&](std::size_t lin, double pred_v) {
          const double x = static_cast<double>(data[lin]);
          double r = 0.0;
          const std::uint32_t code =
              quant.template quantize<T>(x, pred_v, &r);
          if (code == 0) {
            append_pod<T>(enc.unpred, static_cast<T>(x));
            r = x;
          }
          recon[lin] = static_cast<ReconT>(r);
          *code_dst++ = code;
        },
        // Regression rows: stride-1 vectorized quantization, then a scan
        // for the (rare) unpredictable slots so the exact-value stream
        // stays in canonical element order.
        [&](std::size_t base, double row0, double s3, std::size_t n) {
          quant.template quantize_row<T>(data + base, n, row0, s3, code_dst,
                                         recon + base);
          for (std::size_t k = 0; k < n; ++k)
            if (code_dst[k] == 0) append_pod<T>(enc.unpred, data[base + k]);
          code_dst += n;
        });
  }
  return enc;
}

// Decodes a slab shaped header.dims into `recon` (its first output row).
// The walker only reads elements it has already written, each holding the
// T value compress kept in its own reconstruction buffer.
template <typename T, typename Q, typename Cache>
void decompress_impl(const BlobHeader& header, const Q& quant,
                     BlockPredictor pred,
                     std::span<const std::uint32_t> codes,
                     std::span<const std::byte> mode_bits,
                     ByteReader& coeffs, ByteReader& unpred, T* const recon) {
  const Geometry g = Geometry::from_dims(header.dims);
  const bool reg_allowed = regression_allowed(pred, g.real_dims);

  // All boundary stencils precomputed once; rows index by depth signature.
  const Cache stencils(g);

  const auto blocks = enumerate_blocks(g);
  EBLCIO_CHECK_STREAM(mode_bits.size() >= (blocks.size() + 7) / 8,
                      "block: truncated block mode bits");
  std::size_t code_idx = 0;

  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const BlockRef& blk = blocks[bi];
    const bool reg =
        reg_allowed &&
        (static_cast<unsigned>(mode_bits[bi / 8]) >> (bi % 8)) & 1u;
    RegressionCoeffs rc;
    if (reg) rc = coeffs.read_pod<RegressionCoeffs>();

    // The whole block's codes must be present before any element is
    // consumed (stricter-earlier version of the per-element underrun
    // check; same exception on corrupt streams).
    std::size_t block_elems = 1;
    for (int d = 0; d < 4; ++d) block_elems *= blk.extent[d];
    EBLCIO_CHECK_STREAM(code_idx + block_elems <= codes.size(),
                        "block: code stream underrun");
    walk_block_predictions(
        g, blk, stencils, reg, rc, recon,
        [&](std::size_t lin, double pred_v) {
          const std::uint32_t code = codes[code_idx++];
          recon[lin] = code == 0 ? unpred.read_pod<T>()
                                 : static_cast<T>(quant.recover(pred_v, code));
        },
        // Regression rows: stride-1 vectorized recovery, then overwrite
        // the code-0 slots from the exact-value stream in canonical order.
        [&](std::size_t base, double row0, double s3, std::size_t n) {
          const std::uint32_t* cs = codes.data() + code_idx;
          T* out = recon + base;
          quant.template recover_row<T>(cs, n, row0, s3, out);
          for (std::size_t k = 0; k < n; ++k)
            if (cs[k] == 0) out[k] = unpred.read_pod<T>();
          code_idx += n;
        });
  }
}

template <typename T, typename Q>
BlockEncoding compress_cache_dispatch(const NdArray<T>& arr, const Q& quant,
                                      BlockPredictor pred) {
  if (pred == BlockPredictor::kLorenzo2)
    return compress_impl<T, Q, Stencil2Cache>(arr, quant, pred);
  return compress_impl<T, Q, StencilCache>(arr, quant, pred);
}

}  // namespace

BlockEncoding block_compress(const Field& field, double abs_eb,
                             BlockPredictor pred, QuantizerId quant,
                             double quant_param) {
  return with_quantizer(quant, abs_eb, quant_param, [&](auto q) {
    return field.dtype() == DType::kFloat32
               ? compress_cache_dispatch<float>(field.as<float>(), q, pred)
               : compress_cache_dispatch<double>(field.as<double>(), q,
                                                 pred);
  });
}

void block_decompress_rows(const BlobHeader& slab, BlockPredictor pred,
                           QuantizerId quant, double quant_param,
                           std::span<const std::uint32_t> codes,
                           std::span<const std::byte> mode_bits,
                           ByteReader& coeffs, ByteReader& unpred, Field& out,
                           std::size_t row0) {
  with_quantizer(quant, slab.abs_error_bound, quant_param, [&](auto q) {
    const auto decode = [&]<typename T>(T* recon) {
      if (pred == BlockPredictor::kLorenzo2)
        decompress_impl<T, decltype(q), Stencil2Cache>(
            slab, q, pred, codes, mode_bits, coeffs, unpred, recon);
      else
        decompress_impl<T, decltype(q), StencilCache>(
            slab, q, pred, codes, mode_bits, coeffs, unpred, recon);
    };
    if (slab.dtype == DType::kFloat32)
      decode(slab_data<float>(out, slab, row0));
    else
      decode(slab_data<double>(out, slab, row0));
  });
}

Field block_decompress(const BlobHeader& header, BlockPredictor pred,
                       QuantizerId quant, double quant_param,
                       std::span<const std::uint32_t> codes,
                       std::span<const std::byte> mode_bits,
                       ByteReader& coeffs, ByteReader& unpred) {
  Field out = allocate_output(header);
  block_decompress_rows(header, pred, quant, quant_param, codes, mode_bits,
                        coeffs, unpred, out, 0);
  return out;
}

}  // namespace eblcio
