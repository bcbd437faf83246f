// LZ77 codec tests: round-trips on varied content, ratio expectations,
// overlapping matches, corrupt streams.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "codec/intcodec.h"
#include "compressors/backend.h"
#include "codec/lz77.h"
#include "common/error.h"
#include "common/rng.h"

namespace eblcio {
namespace {

Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

void expect_roundtrip(const Bytes& data) {
  const Bytes blob = lz_compress(data);
  const Bytes back = lz_decompress(blob);
  ASSERT_EQ(back.size(), data.size());
  // memcmp's pointers must be non-null even for size 0 (empty vectors
  // return nullptr from data()).
  if (!data.empty())
    EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(Lz77, EmptyInput) { expect_roundtrip({}); }

TEST(Lz77, TinyInput) { expect_roundtrip(to_bytes("ab")); }

TEST(Lz77, PureLiterals) { expect_roundtrip(to_bytes("abcdefgh")); }

TEST(Lz77, RepeatedTextCompressesWell) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "the quick brown fox ";
  const Bytes data = to_bytes(s);
  const Bytes blob = lz_compress(data);
  EXPECT_LT(blob.size(), data.size() / 20);
  expect_roundtrip(data);
}

TEST(Lz77, OverlappingMatchRle) {
  // 100k 'a's exercises dist=1 overlapping copies.
  expect_roundtrip(Bytes(100000, std::byte{'a'}));
}

TEST(Lz77, AllByteValues) {
  Bytes data(256 * 40);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i % 256);
  expect_roundtrip(data);
}

TEST(Lz77, IncompressibleRandomDataSurvives) {
  Rng rng(3);
  Bytes data(65536);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  const Bytes blob = lz_compress(data);
  // Random bytes should not shrink meaningfully, but must round-trip.
  EXPECT_GT(blob.size(), data.size() / 2);
  expect_roundtrip(data);
}

TEST(Lz77, FloatDataLowRatio) {
  // The Fig. 1 point: byte-level LZ on floating-point fields barely helps.
  Rng rng(4);
  Bytes data(4 * 50000);
  double v = 0.0;
  for (std::size_t i = 0; i < data.size() / 4; ++i) {
    v = 0.99 * v + 0.01 * rng.normal();
    const float f = static_cast<float>(v);
    std::memcpy(data.data() + 4 * i, &f, 4);
  }
  const Bytes blob = lz_compress(data);
  const double ratio = static_cast<double>(data.size()) / blob.size();
  EXPECT_LT(ratio, 3.0);
  expect_roundtrip(data);
}

TEST(Lz77, RejectsBadMagic) {
  Bytes blob = lz_compress(to_bytes("hello world hello world"));
  blob[0] = static_cast<std::byte>(0xff);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
}

TEST(Lz77, RejectsTruncatedBlob) {
  Bytes blob = lz_compress(Bytes(10000, std::byte{'x'}));
  blob.resize(blob.size() - 8);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
}

TEST(Lz77, RejectsForgedHugeTokenLengths) {
  // A hand-built blob whose token carries match_len (or literal_run) near
  // UINT64_MAX: the decoder's output-size checks must reject it without
  // the size arithmetic wrapping into an out-of-bounds copy.
  const auto forge = [](std::uint64_t lit_run, std::uint64_t match_len,
                        std::uint64_t dist) {
    // Tokens are varint-coded; build the frame around a real literal blob.
    const Bytes seed = lz_compress(to_bytes("aa"));  // header + lit blob
    Bytes blob;
    // magic + orig_size
    append_pod<std::uint32_t>(blob, 0x4c5a4542u);
    append_pod<std::uint64_t>(blob, 2);
    // reuse the genuine huffman literal blob from the seed frame
    ByteReader r(seed);
    (void)r.read_pod<std::uint32_t>();
    (void)r.read_pod<std::uint64_t>();
    const auto lit_size = r.read_pod<std::uint64_t>();
    auto lit_blob = r.read_bytes(lit_size);
    append_pod<std::uint64_t>(blob, lit_size);
    append_bytes(blob, lit_blob);
    append_pod<std::uint64_t>(blob, 1);  // one token
    varint_encode(blob, lit_run);
    varint_encode(blob, match_len);
    if (match_len > 0) varint_encode(blob, dist);
    return blob;
  };
  const std::uint64_t huge = ~std::uint64_t{0} - 1;
  EXPECT_THROW(lz_decompress(forge(1, huge, 1)), CorruptStream);
  EXPECT_THROW(lz_decompress(forge(huge, 0, 0)), CorruptStream);
  EXPECT_THROW(lz_decompress(forge(2, huge, 2)), CorruptStream);
}

TEST(Lz77, RejectsForgedOrigSizeWithoutReserving) {
  // orig_size (the u64 after the magic) forged to 2^45 must fail as a
  // corrupt stream, not as a 32 TiB reservation.
  Bytes data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i % 7);
  Bytes blob = lz_compress(data);
  const std::uint64_t forged = std::uint64_t{1} << 45;
  std::memcpy(blob.data() + 4, &forged, sizeof forged);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
  // So must a token count the stream cannot hold (the u64 after the
  // literal blob).
  blob = lz_compress(data);
  std::uint64_t lit_size = 0;
  std::memcpy(&lit_size, blob.data() + 12, sizeof lit_size);
  std::memcpy(blob.data() + 20 + lit_size, &forged, sizeof forged);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
}

TEST(Lz77, ProbeDepthTradesRatioForSpeed) {
  std::string s;
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    s += "pattern-";
    s += std::to_string(rng.next_below(30));
  }
  const Bytes data = to_bytes(s);
  LzOptions shallow;
  shallow.max_probes = 1;
  LzOptions deep;
  deep.max_probes = 128;
  const auto blob_shallow = lz_compress(data, shallow);
  const auto blob_deep = lz_compress(data, deep);
  EXPECT_LE(blob_deep.size(), blob_shallow.size());
  EXPECT_EQ(lz_decompress(blob_deep), lz_decompress(blob_shallow));
}

TEST(Lz77, BackendKeepsLzBranchForHeterogeneousStreams) {
  // encode_code_stream must pick the LZ branch whenever it is smaller —
  // including on heterogeneous streams (a noisy region followed by a long
  // smooth one, a normal quantization-code shape) whose Huffman-blob
  // *prefix* is incompressible. Guards against any future sampling
  // shortcut that would judge the stream by its head.
  Rng rng(31);
  std::vector<std::uint32_t> codes;
  for (int i = 0; i < (1 << 17); ++i)
    codes.push_back(rng.next_below(65537));       // noisy head
  codes.insert(codes.end(), 1 << 21, 32768u);     // smooth tail
  const Bytes blob = encode_code_stream(codes, 65537);
  const Bytes huff = huffman_encode(codes, 65537);
  const Bytes lz = lz_compress(huff);
  // The emitted stream must be the (much smaller) LZ branch, not the
  // skipped-pass Huffman fallback.
  EXPECT_LT(blob.size(), huff.size() / 2);
  EXPECT_LE(blob.size(), lz.size() + 16);  // LZ payload + backend framing
  ByteReader r(blob);
  EXPECT_EQ(decode_code_stream(r), codes);
}

class Lz77Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77Fuzz, StructuredRandomRoundTrip) {
  Rng rng(GetParam());
  // Mix of runs, repeats and noise.
  Bytes data;
  for (int seg = 0; seg < 50; ++seg) {
    const int kind = static_cast<int>(rng.next_below(3));
    const std::size_t len = 10 + rng.next_below(3000);
    if (kind == 0) {
      data.insert(data.end(), len,
                  static_cast<std::byte>(rng.next_below(256)));
    } else if (kind == 1 && !data.empty()) {
      const std::size_t src = rng.next_below(data.size());
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(data[src + (i % (data.size() - src))]);
    } else {
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(static_cast<std::byte>(rng.next_below(256)));
    }
  }
  expect_roundtrip(data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77Fuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace eblcio
