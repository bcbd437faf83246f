// Forged blob headers and slab tables. A decoder must reject dims or a
// dtype that no encoder writes, and a slab count its blob cannot hold,
// with CorruptStream, before it sizes any buffer from them.
//
// This binary replaces the global operator new with one that records the
// largest single allocation, so a table sized from a forged count fails
// here even when the decode goes on to throw the right error.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "test_util.h"

namespace {

std::atomic<std::size_t> g_largest_alloc{0};

}  // namespace

namespace {

void* counted_malloc(std::size_t n) noexcept {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_alloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n ? n : 1);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, so that no allocation pairs this binary's free
// with a sanitizer runtime's operator new.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace eblcio {
namespace {

using test::smooth_field_3d;

// The largest single allocation `decode` makes.
template <typename F>
std::size_t largest_allocation(F&& decode) {
  g_largest_alloc.store(0);
  decode();
  return g_largest_alloc.load();
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}
void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

// BlobHeader layout: u32 magic, u32 name length, name, u8 dtype,
// u8 ndims, u64 dims[ndims], f64 bound, u8 mode, f64 requested bound.
std::size_t dtype_offset(const Bytes& blob) {
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, blob.data() + 4, sizeof name_len);
  return 8 + name_len;
}
std::size_t header_end(const Bytes& blob) {
  const std::size_t dtype_at = dtype_offset(blob);
  const auto nd = static_cast<std::size_t>(blob[dtype_at + 1]);
  return dtype_at + 2 + 8 * nd + 8 + 1 + 8;
}

CompressOptions lossy(int threads) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  opt.threads = threads;
  return opt;
}

TEST(ForgedBlobs, EveryEblcCodecRejectsForgedDimsAndDType) {
  NdArray<float> arr(Shape{4, 4});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = 0.25f * static_cast<float>(i);
  const Field f("f", std::move(arr));
  for (const std::string& codec : eblc_names()) {
    SCOPED_TRACE(codec);
    const Bytes blob = compressor(codec).compress(f, lossy(1));
    const std::size_t dtype_at = dtype_offset(blob);
    const std::size_t dims_at = dtype_at + 2;
    ASSERT_EQ(static_cast<int>(blob[dtype_at + 1]), 2);
    const auto forged_dims = [&](std::uint64_t d0, std::uint64_t d1) {
      Bytes b = blob;
      put_u64(b, dims_at, d0);
      put_u64(b, dims_at + 8, d1);
      return b;
    };
    // 2^64 elements: the count wraps size_t to 0.
    EXPECT_THROW(decompress_any(forged_dims(1ULL << 33, 1ULL << 31), 1),
                 CorruptStream);
    // 2^62 f32 elements: the count fits size_t, the byte count does not.
    EXPECT_THROW(decompress_any(forged_dims(1ULL << 31, 1ULL << 31), 1),
                 CorruptStream);
    EXPECT_THROW(decompress_any(forged_dims(0, 4), 1), CorruptStream);
    EXPECT_THROW(decompress_any(forged_dims(4, 0), 1), CorruptStream);
    Bytes dtype = blob;
    dtype[dtype_at] = std::byte{2};
    EXPECT_THROW(decompress_any(dtype, 1), CorruptStream);
  }
}

// Where the u32 slab count sits: right after the header for SZ2 and ZFP,
// after the header and the chunked layout tag for the chunk container.
struct CountSite {
  const char* codec;
  bool chunk_container;
};
constexpr CountSite kCountSites[] = {
    {"SZ2", false},
    {"ZFP", false},
    {"SZ3", true},
    {"QoZ", true},
    {"SZx", true},
    {"composed:lorenzo1+linear+huffman", true},
};

std::size_t count_offset(const Bytes& blob, const CountSite& site) {
  const std::size_t at = header_end(blob);
  if (!site.chunk_container) return at;
  EXPECT_EQ(static_cast<std::uint8_t>(blob[at]), kLayoutChunked);
  return at + 1;
}

TEST(ForgedBlobs, SlabCountPastTheRowsIsRejectedBeforeAnyTable) {
  const Field f = smooth_field_3d(8);
  for (const CountSite& site : kCountSites) {
    SCOPED_TRACE(site.codec);
    const Bytes blob = compressor(site.codec).compress(f, lossy(4));
    const std::size_t at = count_offset(blob, site);
    std::uint32_t count = 0;
    std::memcpy(&count, blob.data() + at, sizeof count);
    ASSERT_EQ(count, 4u);
    // One slab more than the 8 rows (ZFP: 8 blocks) can hold, and a count
    // whose table alone would take 8 MiB (SZ2: 56 MiB) of a 2 KB blob.
    for (const std::uint32_t forged : {9u, 1u << 20}) {
      SCOPED_TRACE(forged);
      Bytes b = blob;
      put_u32(b, at, forged);
      const std::size_t largest = largest_allocation([&] {
        EXPECT_THROW(decompress_any(b, 4), CorruptStream);
      });
      EXPECT_LT(largest, std::size_t{1} << 20);
    }
  }
}

TEST(ForgedBlobs, SlabCountPastTheBytesIsRejectedBeforeAnyTable) {
  // 2^20 rows allow a count of 2^20, but no blob here holds 2^20 size
  // entries (8 MiB; ZFP's 2^18 blocks reject the count first).
  constexpr std::uint32_t kRows = 1u << 20;
  NdArray<float> arr(Shape{kRows, 2});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = 0.01f * static_cast<float>(i % 64);
  const Field f("tall", std::move(arr));
  for (const CountSite& site : kCountSites) {
    SCOPED_TRACE(site.codec);
    const Bytes blob = compressor(site.codec).compress(f, lossy(4));
    ASSERT_LT(blob.size(), kRows * sizeof(std::uint64_t));
    Bytes b = blob;
    put_u32(b, count_offset(blob, site), kRows);
    const std::size_t largest = largest_allocation([&] {
      EXPECT_THROW(decompress_any(b, 4), CorruptStream);
    });
    EXPECT_LT(largest, std::size_t{1} << 20);
  }
}

TEST(ForgedBlobs, UnforgedBlobsStillDecode) {
  const Field f = smooth_field_3d(8);
  for (const CountSite& site : kCountSites) {
    SCOPED_TRACE(site.codec);
    const Bytes blob = compressor(site.codec).compress(f, lossy(4));
    EXPECT_EQ(decompress_any(blob, 4).shape(), f.shape());
  }
}

}  // namespace
}  // namespace eblcio
