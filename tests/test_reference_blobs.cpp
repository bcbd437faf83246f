// Seed reference blobs: 17 deterministic compression cases whose encoded
// blob AND decoded reconstruction are pinned by FNV-1a hash, plus 15
// block-engine cases (kBlockPinned) and 4 multi-slab chunked cases
// (kChunkedPinned) pinned the same way.
//
// The wire formats of every codec in the library are frozen: kernel
// optimizations (table-driven Huffman, multi-symbol LUT packing,
// vectorized SZ2/interp regression blocks, LZ match-finder changes) must
// not change a single emitted or reconstructed byte. These hashes were
// captured from the PR-6 seed library; any future kernel change that
// alters one is a wire-format break, not a speedup, and must be rejected
// (or, for an intentional format revision, re-pinned with a version bump
// and a migration note).
//
// Inputs are generated with pure Rng arithmetic — no libm transcendentals
// — so the cases hash identically across hosts and libm versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "codec/huffman.h"
#include "codec/lz77.h"
#include "codec/shuffle.h"
#include "common/field.h"
#include "common/rng.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "data/dataset.h"
#include "referees/huffman_reference.h"

namespace eblcio {
namespace {

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_pod_span(std::span<const T> s) {
  return fnv1a(std::as_bytes(s));
}

// Smooth-ish deterministic field: a decaying random walk plus a linear
// ramp, built from Rng uniforms and plain arithmetic only. The ramp makes
// the SZ2 regression predictor win on a meaningful share of blocks, so the
// regression code path is exercised by every SZ2 case.
template <typename T>
Field make_field(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)});
  Rng rng(seed);
  double v = 0.0;
  const std::size_t d_last = dims.back();
  std::size_t i = 0;
  for (auto& x : arr.span()) {
    v = 0.96 * v + (rng.next_double() - 0.5);
    const double ramp = 0.05 * static_cast<double>(i % d_last);
    x = static_cast<T>(v + ramp);
    ++i;
  }
  return Field("ref", std::move(arr));
}

struct PinnedCase {
  const char* name;
  std::uint64_t blob_hash;
  std::uint64_t decode_hash;  // 0 when decode is checked by equality instead
};

// Hashes captured from the seed library (see file comment).
constexpr PinnedCase kPinned[] = {
    {"huffman_normal", 0x4467567e6d191f16ULL, 0},
    {"huffman_geometric", 0x755c5e6c92773666ULL, 0},
    {"lz_mixed", 0x2b45625abb3f31a3ULL, 0},
    {"shuffle_3d", 0xae76bc95179f3960ULL, 0},
    {"sz2_1d_f32", 0x160a96d25db9438bULL, 0x98e4a43170d39902ULL},
    {"sz2_2d_f32", 0x1203f1d00074f3f5ULL, 0xbc1de66adec71cb3ULL},
    {"sz2_3d_f32", 0x789d9d1365207282ULL, 0x5ca41afb46d5f560ULL},
    {"sz2_3d_f64", 0x5e4e9716ab07a95aULL, 0xf34e8330f19cc1cbULL},
    {"sz2_3d_f32_chunked", 0xbf7c701bd67a12bbULL, 0xc2c23155f71beecdULL},
    {"sz3_1d_f32", 0xabfa5d3c64676e23ULL, 0xee65a0c91555006cULL},
    {"sz3_2d_f32", 0xb53b60d67bb83b64ULL, 0x953e1a749e159d61ULL},
    {"sz3_3d_f32", 0x9183e77cd1b0ea3eULL, 0x1bb6555a58242a40ULL},
    {"qoz_2d_f32", 0x5444939602d7dcb0ULL, 0x780f12cdaea4090eULL},
    {"qoz_3d_f32", 0x285f3ed2903ef832ULL, 0x1bb6555a58242a40ULL},
    {"zfp_2d_f32", 0x05c07800c2434772ULL, 0x003f1892d7af440fULL},
    {"zfp_3d_f32", 0x2aa46e65ca097fd7ULL, 0x2c64ea576c5a5848ULL},
    {"szx_3d_f32", 0xfdae947bbd03bc52ULL, 0xb9f57fec561e5609ULL},
};

// Multi-slab decode pins: the chunked layout of every slab-parallel codec
// ({32,32,32}, 4 threads, so 4 slabs of 8 rows). Captured while every
// slab still decoded into a Field of its own that a merge then copied into
// the output, so they also pin any rework of how slabs are placed.
constexpr PinnedCase kChunkedPinned[] = {
    {"sz3_3d_f32_chunked", 0x827d822b0b4558f3ULL, 0x9cf8425c3676c483ULL},
    {"qoz_3d_f32_chunked", 0xa9d3d9e659729237ULL, 0x9cf8425c3676c483ULL},
    {"szx_3d_f32_chunked", 0x1f2a070c80196abcULL, 0xb9f57fec561e5609ULL},
    {"ilinear_3d_f32_chunked", 0x2b732d36c1bbfa9dULL, 0xd42e9e7fa7bed943ULL},
};

// Block-engine decode pins: every block-engine predictor order and
// quantizer family, ragged 1D-4D shapes (no dimension a multiple of its
// block edge), f32 and f64, with planted outliers that force code 0 at a
// block start, at a row start and mid-row (inside a regression row for the
// regression predictor). The SZ2 cases above only reach the decoder's
// kLorenzoRegression + linear-recip path on smooth data; these pin what the
// Lorenzo walker reconstructs on every other path. Captured while the
// walker still split each row into a prefix pass and a carried suffix, so
// they also pin that the fused per-element walk which replaced it decodes
// the same bytes. The log-quantizer cases also depend on libm's
// log1p/expm1.
constexpr PinnedCase kBlockPinned[] = {
    {"blk_l1recip_1d_f32", 0x13489c12c4c1a631ULL, 0xdd1fa4d996799cc1ULL},
    {"blk_l1recip_2d_f64", 0xec9cce0bc65334d1ULL, 0xc283678b3a41ca40ULL},
    {"blk_l1recip_3d_f32", 0x3687be3865d0f93eULL, 0x71690ca0e24da091ULL},
    {"blk_l1recip_4d_f64", 0xf16f65101eec5530ULL, 0x3eea03d188907ebaULL},
    {"blk_l2lin_1d_f64", 0x7591cdcbcf5e6f52ULL, 0x697c58b644f224efULL},
    {"blk_l2lin_2d_f32", 0xc2320d57d6ed0f20ULL, 0xa0e8fcab60097e9eULL},
    {"blk_l2lin_3d_f64", 0x512b92d4175902ffULL, 0x1c6912bdb498d5b3ULL},
    {"blk_l2lin_4d_f32", 0xded83ae6a41f78e6ULL, 0xc2ff696751a94dbdULL},
    {"blk_reglin_2d_f64", 0x73698602e5b163dbULL, 0x986e17c51123e0b6ULL},
    {"blk_reglin_3d_f32", 0x596cc286547c1a0aULL, 0xeb88e6896f666fc4ULL},
    {"blk_reglin_4d_f64", 0xd0d8259c5b3affdeULL, 0xed0573bc4f04dbc6ULL},
    {"blk_l1log_2d_f32", 0x305b964e4201c703ULL, 0x554159ac79854e96ULL},
    {"blk_l1log_3d_f64", 0x0c391a6a1d77ffe5ULL, 0xb52371eff2ef43a5ULL},
    {"blk_l1recip_3d_f32_t3", 0xddeddc3009b7c383ULL, 0x4303201d511e5e36ULL},
    {"blk_sz2_3d_f64", 0x61ac483ebecad8adULL, 0x2f344af60dbb95f4ULL},
};

const PinnedCase& pinned(const char* name) {
  for (const auto& c : kPinned)
    if (std::string_view(c.name) == name) return c;
  for (const auto& c : kBlockPinned)
    if (std::string_view(c.name) == name) return c;
  for (const auto& c : kChunkedPinned)
    if (std::string_view(c.name) == name) return c;
  ADD_FAILURE() << "no pinned case named " << name;
  static PinnedCase none{"", 0, 0};
  return none;
}

// When set, prints harvest-ready hash lines for re-pinning after an
// intentional wire-format change:
//   EBLCIO_DUMP_REF_HASHES=1 ./test_reference_blobs
bool dump_hashes() {
  static const bool dump = std::getenv("EBLCIO_DUMP_REF_HASHES") != nullptr;
  return dump;
}

void check_case(const char* name, std::uint64_t blob_hash,
                std::uint64_t decode_hash) {
  if (dump_hashes())
    std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", name,
                static_cast<unsigned long long>(blob_hash),
                static_cast<unsigned long long>(decode_hash));
  const PinnedCase& p = pinned(name);
  EXPECT_EQ(blob_hash, p.blob_hash)
      << name << ": encoded blob changed (wire-format break)";
  EXPECT_EQ(decode_hash, p.decode_hash)
      << name << ": decoded bytes changed (decoder behaviour break)";
}

void check_codec_case(const char* name, const std::string& codec, DType dtype,
                      const std::vector<std::size_t>& dims, int threads) {
  SCOPED_TRACE(name);
  const Field f = dtype == DType::kFloat32
                      ? make_field<float>(dims, 0x5eedULL)
                      : make_field<double>(dims, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  opt.threads = threads;
  Compressor& comp = compressor(codec);
  const Bytes blob = comp.compress(f, opt);
  const Field back = comp.decompress(blob, threads);
  ASSERT_EQ(back.shape(), f.shape());
  check_case(name, fnv1a(blob), fnv1a(back.bytes()));
}

TEST(ReferenceBlobs, HuffmanNormalStream) {
  // SZ-style quantization codes: Irwin-Hall sum of uniforms approximates
  // the centered normal the entropy stage sees, with no libm calls.
  Rng rng(2);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& s : syms) {
    double g = 0.0;
    for (int k = 0; k < 8; ++k) g += rng.next_double() - 0.5;
    double v = 32768.0 + g * 42.0;
    if (v < 0.0) v = 0.0;
    if (v > 65536.0) v = 65536.0;
    s = static_cast<std::uint32_t>(v);
  }
  const Bytes blob = huffman_encode(syms, 65537);
  ASSERT_EQ(huffman_decode(blob), syms);
  ASSERT_EQ(huffman_decode_reference(blob), syms);
  check_case("huffman_normal", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, HuffmanGeometricStream) {
  // Low-entropy geometric stream: typical code lengths <= 5 bits, the
  // regime the multi-symbol LUT packs two symbols per slot for.
  Rng rng(6);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& s : syms) {
    std::uint32_t v = 0;
    while (v < 63 && rng.next_double() < 0.5) ++v;
    s = v;
  }
  const Bytes blob = huffman_encode(syms, 64);
  ASSERT_EQ(huffman_decode(blob), syms);
  ASSERT_EQ(huffman_decode_reference(blob), syms);
  check_case("huffman_geometric", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, LzMixedCorpus) {
  Rng rng(3);
  Bytes corpus;
  for (int seg = 0; seg < 48; ++seg) {
    const std::size_t len = 512 + rng.next_below(2048);
    if (seg % 3 == 0) {
      corpus.insert(corpus.end(), len,
                    static_cast<std::byte>(rng.next_below(256)));
    } else {
      for (std::size_t i = 0; i < len; ++i)
        corpus.push_back(static_cast<std::byte>(rng.next_below(16) * 17));
    }
  }
  const Bytes blob = lz_compress(corpus);
  ASSERT_EQ(lz_decompress(blob), corpus);
  check_case("lz_mixed", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, ShuffleField) {
  const Field f = make_field<float>({32, 32, 32}, 0x5eedULL);
  const Bytes shuffled = shuffle_bytes(f.bytes(), 4);
  ASSERT_EQ(unshuffle_bytes(shuffled, 4),
            Bytes(f.bytes().begin(), f.bytes().end()));
  check_case("shuffle_3d", fnv1a(shuffled), 0);
}

TEST(ReferenceBlobs, Sz2) {
  check_codec_case("sz2_1d_f32", "SZ2", DType::kFloat32, {4096}, 1);
  check_codec_case("sz2_2d_f32", "SZ2", DType::kFloat32, {96, 96}, 1);
  check_codec_case("sz2_3d_f32", "SZ2", DType::kFloat32, {32, 32, 32}, 1);
  check_codec_case("sz2_3d_f64", "SZ2", DType::kFloat64, {32, 32, 32}, 1);
  // Multi-slab chunked layout: same field, 4-thread slab split.
  check_codec_case("sz2_3d_f32_chunked", "SZ2", DType::kFloat32,
                   {32, 32, 32}, 4);
}

TEST(ReferenceBlobs, Sz3) {
  check_codec_case("sz3_1d_f32", "SZ3", DType::kFloat32, {4096}, 1);
  check_codec_case("sz3_2d_f32", "SZ3", DType::kFloat32, {96, 96}, 1);
  check_codec_case("sz3_3d_f32", "SZ3", DType::kFloat32, {32, 32, 32}, 1);
  check_codec_case("sz3_3d_f32_chunked", "SZ3", DType::kFloat32,
                   {32, 32, 32}, 4);
}

TEST(ReferenceBlobs, QoZ) {
  check_codec_case("qoz_2d_f32", "QoZ", DType::kFloat32, {96, 96}, 1);
  check_codec_case("qoz_3d_f32", "QoZ", DType::kFloat32, {32, 32, 32}, 1);
  check_codec_case("qoz_3d_f32_chunked", "QoZ", DType::kFloat32,
                   {32, 32, 32}, 4);
}

TEST(ReferenceBlobs, Zfp) {
  check_codec_case("zfp_2d_f32", "ZFP", DType::kFloat32, {96, 96}, 1);
  check_codec_case("zfp_3d_f32", "ZFP", DType::kFloat32, {32, 32, 32}, 1);
}

TEST(ReferenceBlobs, Szx) {
  check_codec_case("szx_3d_f32", "SZx", DType::kFloat32, {32, 32, 32}, 1);
  check_codec_case("szx_3d_f32_chunked", "SZx", DType::kFloat32,
                   {32, 32, 32}, 4);
}

TEST(ReferenceBlobs, ComposedInterpChunked) {
  check_codec_case("ilinear_3d_f32_chunked",
                   "composed:interp-linear+linear+huffman-lz",
                   DType::kFloat32, {32, 32, 32}, 4);
}

// --- Component-framework equivalence ---------------------------------------
//
// The composed-codec refactor (PR 8) factored SZ2's kernels into
// block_core and templated interp_core over the quantizer. These tests
// pin that the framework components, assembled with the legacy framing,
// reproduce the frozen SZ2/SZ3 wire formats byte-for-byte — i.e. the
// legacy codecs really are configurations of the new framework, not
// parallel implementations.

BlobHeader legacy_header(const char* codec, const Field& f,
                         const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = f.dtype();
  h.dims = f.shape().dims_vector();
  h.abs_error_bound = absolute_bound_for(f, opt);
  h.requested_mode = opt.mode;
  h.requested_bound = opt.error_bound;
  return h;
}

// Assembles an SZ2 blob from the framework components: the
// (kLorenzoRegression, kLinearRecip) block engine plus the huffman-lz
// encoder, behind SZ2's single-slab framing.
void check_sz2_equivalence(const char* pinned_name, DType dtype,
                           const std::vector<std::size_t>& dims) {
  SCOPED_TRACE(pinned_name);
  const Field f = dtype == DType::kFloat32
                      ? make_field<float>(dims, 0x5eedULL)
                      : make_field<double>(dims, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Bytes expect = compressor("SZ2").compress(f, opt);

  const BlobHeader header = legacy_header("SZ2", f, opt);
  const BlockEncoding enc = block_compress(
      f, header.abs_error_bound, BlockPredictor::kLorenzoRegression,
      QuantizerId::kLinearRecip, 0.0);
  Bytes out;
  header.encode(out);
  append_pod<std::uint32_t>(out, 1);  // one slab (serial compression)
  append_pod<std::uint64_t>(out, enc.codes.size());
  append_sized(out, enc.mode_bits);
  append_sized(out, enc.coeffs);
  append_sized(out, enc.unpred);
  // The huffman-lz encoder component is the legacy entropy stage.
  append_bytes(out, encode_codes_with(EncoderId::kHuffmanLz, enc.codes,
                                      kQuantAlphabet));

  ASSERT_EQ(out, expect) << "component-assembled SZ2 blob diverged";
  EXPECT_EQ(fnv1a(out), pinned(pinned_name).blob_hash);
}

TEST(ReferenceBlobs, ComposedSz2Equivalence) {
  check_sz2_equivalence("sz2_1d_f32", DType::kFloat32, {4096});
  check_sz2_equivalence("sz2_2d_f32", DType::kFloat32, {96, 96});
  check_sz2_equivalence("sz2_3d_f32", DType::kFloat32, {32, 32, 32});
  check_sz2_equivalence("sz2_3d_f64", DType::kFloat64, {32, 32, 32});
}

// Assembles an SZ3 blob from the interp engine at its default (legacy)
// configuration — which, post-refactor, routes through the same templated
// kernel the composed interp-cubic configurations use.
void check_interp_equivalence(const char* pinned_name,
                              const std::vector<std::size_t>& dims) {
  SCOPED_TRACE(pinned_name);
  const Field f = make_field<float>(dims, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Bytes expect = compressor("SZ3").compress(f, opt);

  const BlobHeader header = legacy_header("SZ3", f, opt);
  InterpConfig config;  // legacy defaults, incl. the linear-recip quantizer
  const InterpEncoding enc =
      interp_compress(f, header.abs_error_bound, config);
  Bytes out;
  header.encode(out);
  append_pod<std::uint8_t>(out, kLayoutSingle);
  const Bytes payload = interp_payload_encode(config, enc);
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);

  ASSERT_EQ(out, expect) << "component-assembled SZ3 blob diverged";
  EXPECT_EQ(fnv1a(out), pinned(pinned_name).blob_hash);
}

TEST(ReferenceBlobs, ComposedInterpEquivalence) {
  check_interp_equivalence("sz3_1d_f32", {4096});
  check_interp_equivalence("sz3_2d_f32", {96, 96});
  check_interp_equivalence("sz3_3d_f32", {32, 32, 32});
}

// --- Block-engine decode pins ----------------------------------------------

// Linear index of `coord` in a row-major field shaped `dims`.
std::size_t linear_index(const std::vector<std::size_t>& dims,
                         const std::vector<std::size_t>& coord) {
  std::size_t lin = 0;
  for (std::size_t d = 0; d < dims.size(); ++d) lin = lin * dims[d] + coord[d];
  return lin;
}

// Elements the block engine must mark unpredictable: the origin of the
// second block along every dimension, the start of that block's second row
// and the middle of its first row. 1D has one row per block, so its "row
// start" is the third block's origin.
std::vector<std::size_t> outlier_sites(const std::vector<std::size_t>& dims) {
  static constexpr std::size_t kEdge[] = {256, 16, 6, 6};
  const std::size_t edge = kEdge[dims.size() - 1];
  std::vector<std::size_t> origin(dims.size(), edge);
  std::vector<std::size_t> row_start = origin;
  std::vector<std::size_t> mid_row = origin;
  mid_row.back() += edge / 2;
  if (dims.size() == 1)
    row_start[0] = 2 * edge;
  else
    row_start[dims.size() - 2] += 1;
  return {linear_index(dims, origin), linear_index(dims, row_start),
          linear_index(dims, mid_row)};
}

// Far outside the quantizer's reach at the test's absolute bound, and
// exactly representable in f32, so the unpred stream holds it verbatim.
constexpr double kSpike = 4096.5;

template <typename T>
Field make_outlier_field(const std::vector<std::size_t>& dims,
                         const std::vector<std::size_t>& sites) {
  Field f = make_field<T>(dims, 0xb10cULL);
  auto& arr = f.as<T>();
  double spike = kSpike;
  for (std::size_t lin : sites) {
    arr[lin] = static_cast<T>(spike);
    spike = -spike;
  }
  return f;
}

// How many planted spikes the encoding stored as unpredictable (code 0)
// values. Codes are in block order, not linear order, so the exact-value
// stream is the direct witness.
template <typename T>
std::size_t unpredictable_spikes(const Bytes& unpred) {
  std::vector<T> vals(unpred.size() / sizeof(T));
  std::memcpy(vals.data(), unpred.data(), vals.size() * sizeof(T));
  return static_cast<std::size_t>(
      std::count_if(vals.begin(), vals.end(), [](T v) {
        return std::fabs(static_cast<double>(v)) == kSpike;
      }));
}

struct BlockCase {
  const char* name;
  const char* codec;
  BlockPredictor predictor;
  QuantizerId quantizer;
  DType dtype;
  std::vector<std::size_t> dims;
  int threads;
};

void check_block_case(const BlockCase& c) {
  SCOPED_TRACE(c.name);
  const auto sites = outlier_sites(c.dims);
  const Field f = c.dtype == DType::kFloat32
                      ? make_outlier_field<float>(c.dims, sites)
                      : make_outlier_field<double>(c.dims, sites);
  CompressOptions opt;
  opt.mode = BoundMode::kAbsolute;
  opt.error_bound = 1e-3;
  opt.threads = c.threads;

  // The planted spikes really are unpredictable (code 0) in the one-slab
  // block encoding; the log quantizer's parameter is the field's max |x|,
  // as the composed codec derives it.
  const auto range = f.value_range();
  const double quant_param =
      c.quantizer == QuantizerId::kLog
          ? std::max(std::fabs(range.min), std::fabs(range.max))
          : 0.0;
  const BlockEncoding enc = block_compress(f, opt.error_bound, c.predictor,
                                           c.quantizer, quant_param);
  EXPECT_EQ(c.dtype == DType::kFloat32
                ? unpredictable_spikes<float>(enc.unpred)
                : unpredictable_spikes<double>(enc.unpred),
            sites.size());

  Compressor& comp = compressor(c.codec);
  const Bytes blob = comp.compress(f, opt);
  const Field back = comp.decompress(blob, c.threads);
  ASSERT_EQ(back.shape(), f.shape());
  check_case(c.name, fnv1a(blob), fnv1a(back.bytes()));
}

TEST(ReferenceBlobs, BlockEngineDecode) {
  using BP = BlockPredictor;
  using Q = QuantizerId;
  constexpr auto f32 = DType::kFloat32;
  constexpr auto f64 = DType::kFloat64;
  const char* l1recip = "composed:lorenzo1+linear-recip+huffman-lz";
  const char* l2lin = "composed:lorenzo2+linear+huffman-lz";
  const char* reglin = "composed:regression+linear+huffman-lz";
  const char* l1log = "composed:lorenzo1+log+huffman-lz";
  const BlockCase cases[] = {
      {"blk_l1recip_1d_f32", l1recip, BP::kLorenzo1, Q::kLinearRecip, f32,
       {1000}, 1},
      {"blk_l1recip_2d_f64", l1recip, BP::kLorenzo1, Q::kLinearRecip, f64,
       {37, 53}, 1},
      {"blk_l1recip_3d_f32", l1recip, BP::kLorenzo1, Q::kLinearRecip, f32,
       {13, 17, 22}, 1},
      {"blk_l1recip_4d_f64", l1recip, BP::kLorenzo1, Q::kLinearRecip, f64,
       {7, 9, 8, 11}, 1},
      {"blk_l2lin_1d_f64", l2lin, BP::kLorenzo2, Q::kLinear, f64, {1000}, 1},
      {"blk_l2lin_2d_f32", l2lin, BP::kLorenzo2, Q::kLinear, f32, {37, 53},
       1},
      {"blk_l2lin_3d_f64", l2lin, BP::kLorenzo2, Q::kLinear, f64,
       {13, 17, 22}, 1},
      {"blk_l2lin_4d_f32", l2lin, BP::kLorenzo2, Q::kLinear, f32,
       {7, 9, 8, 11}, 1},
      {"blk_reglin_2d_f64", reglin, BP::kRegression, Q::kLinear, f64,
       {37, 53}, 1},
      {"blk_reglin_3d_f32", reglin, BP::kRegression, Q::kLinear, f32,
       {13, 17, 22}, 1},
      {"blk_reglin_4d_f64", reglin, BP::kRegression, Q::kLinear, f64,
       {7, 9, 8, 11}, 1},
      {"blk_l1log_2d_f32", l1log, BP::kLorenzo1, Q::kLog, f32, {37, 53}, 1},
      {"blk_l1log_3d_f64", l1log, BP::kLorenzo1, Q::kLog, f64, {13, 17, 22},
       1},
      // Slab-chunked layout: three slabs, each its own block walk.
      {"blk_l1recip_3d_f32_t3", l1recip, BP::kLorenzo1, Q::kLinearRecip, f32,
       {13, 17, 22}, 3},
      {"blk_sz2_3d_f64", "SZ2", BP::kLorenzoRegression, Q::kLinearRecip, f64,
       {13, 17, 22}, 1},
  };
  for (const auto& c : cases) check_block_case(c);
}

}  // namespace
}  // namespace eblcio
