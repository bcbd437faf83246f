// Zone-sharded compression and partial-region reads: extent math, the
// ZoneCompressor's parallel/serial bit-parity, region decodes against the
// full-field slice, the zoned container index through every IoTool, random
// query boxes vs the serial reference, and robustness (corrupt zone
// indexes, zone extents that do not match their blobs, v1 chunks that do
// not tile the dataset, truncated zone blobs, out-of-bounds queries must
// fail cleanly with no partial field escaping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/error.h"
#include "common/region.h"
#include "common/rng.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "core/pipeline.h"
#include "io/io_tool.h"
#include "io/pfs.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::noisy_field_1d;
using test::smooth_field_2d;
using test::smooth_field_3d;

bool bytes_equal(const Field& a, const Field& b) {
  const auto ab = a.bytes();
  const auto bb = b.bytes();
  return ab.size() == bb.size() &&
         std::equal(ab.begin(), ab.end(), bb.begin());
}

// A zeroed field shaped like `region`, dtype matching `like`.
Field region_shaped(const Field& like, const Region& region) {
  const Shape s{std::span<const std::size_t>(region.shape)};
  if (like.dtype() == DType::kFloat32)
    return Field(like.name(), NdArray<float>(s));
  return Field(like.name(), NdArray<double>(s));
}

// Independent slice extraction: the whole field is one "zone" starting at
// row 0, so scattering it into `region` yields exactly the region's values.
Field slice_region(const Field& full, const Region& region) {
  Field out = region_shaped(full, region);
  scatter_zone_into_region(full, 0, region, out);
  return out;
}

Region random_region(Rng& rng, const std::vector<std::size_t>& dims) {
  Region r;
  for (std::size_t d : dims) {
    const std::size_t start = rng.next_below(d);
    const std::size_t len = 1 + rng.next_below(d - start);
    r.start.push_back(start);
    r.shape.push_back(len);
  }
  return r;
}

// --- extent math ------------------------------------------------------------

TEST(ZoneExtents, PartitionLeadingDimensionLikeSlabs) {
  const auto ext = zone_extents(40, 8);
  ASSERT_EQ(ext.size(), 8u);
  std::size_t next = 0, total = 0;
  for (const auto& z : ext) {
    EXPECT_EQ(z.row_start, next);
    EXPECT_GT(z.rows, 0u);
    next += z.rows;
    total += z.rows;
  }
  EXPECT_EQ(total, 40u);
  // 43 = 8*5 + 3: the first three zones take the extra row.
  const auto uneven = zone_extents(43, 8);
  EXPECT_EQ(uneven[0].rows, 6u);
  EXPECT_EQ(uneven[2].rows, 6u);
  EXPECT_EQ(uneven[3].rows, 5u);
}

TEST(ZoneExtents, ClampsToLeadingExtent) {
  const auto ext = zone_extents(3, 16);
  ASSERT_EQ(ext.size(), 3u);
  for (const auto& z : ext) EXPECT_EQ(z.rows, 1u);
}

TEST(CoveringZones, IntersectionIsContiguousRun) {
  const auto ext = zone_extents(40, 8);  // 5 rows each
  EXPECT_EQ(covering_zones(ext, 0, 40).size(), 8u);
  const auto one = covering_zones(ext, 7, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 1u);
  // Rows [4, 6) straddle the zone 0 / zone 1 boundary.
  const auto straddle = covering_zones(ext, 4, 2);
  ASSERT_EQ(straddle.size(), 2u);
  EXPECT_EQ(straddle[0], 0u);
  EXPECT_EQ(straddle[1], 1u);
  // A boundary-aligned query touches only the zone it starts in.
  const auto aligned = covering_zones(ext, 5, 5);
  ASSERT_EQ(aligned.size(), 1u);
  EXPECT_EQ(aligned[0], 1u);
}

TEST(RegionValidate, RejectsEmptyAndOutOfBounds) {
  const std::vector<std::size_t> dims{8, 8};
  EXPECT_NO_THROW(validate_region({{0, 0}, {8, 8}}, dims));
  EXPECT_THROW(validate_region({{0, 0}, {0, 8}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{8, 0}, {1, 1}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{4, 0}, {5, 1}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{0}, {8}}, dims), InvalidArgument);
}

// --- ZoneCompressor ---------------------------------------------------------

TEST(ZoneCompressor, ParallelDecodeMatchesSerialAndUnzonedBitForBit) {
  const Field f = smooth_field_3d(40);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const ZoneCompressor zc("SZ3", 8);

  const ZonedField zoned = zc.compress(f, opt, /*parallel=*/true);
  EXPECT_EQ(zoned.zones(), 8u);
  const ZonedField serial_zoned = zc.compress(f, opt, /*parallel=*/false);
  ASSERT_EQ(serial_zoned.zones(), zoned.zones());
  for (std::size_t i = 0; i < zoned.zones(); ++i)
    EXPECT_EQ(zoned.blobs[i], serial_zoned.blobs[i]) << "zone " << i;

  const Field par = ZoneCompressor::decompress_all(zoned, true);
  const Field ser = ZoneCompressor::decompress_all(zoned, false);
  EXPECT_TRUE(bytes_equal(par, ser));

  // The acceptance bar: zones shard exactly like the streamed pipeline's
  // slabs and compress at the whole-field absolute bound, so the merged
  // zone reconstruction is bit-identical to the unzoned chunked path.
  PfsSimulator pfs;
  PipelineConfig pc;
  pc.codec = "SZ3";
  pc.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, pc, pfs, stream);
  const Field chunked = run_streamed_read(pfs, wrec.path, pc).field;
  EXPECT_TRUE(bytes_equal(par, chunked));
}

TEST(ZoneCompressor, RegionDecodeMatchesFullDecodeSlice) {
  const Field f = smooth_field_3d(40);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const ZoneCompressor zc("SZ3", 8);
  const ZonedField zoned = zc.compress(f, opt);
  const Field full = ZoneCompressor::decompress_all(zoned);

  Rng rng(31);
  for (int q = 0; q < 6; ++q) {
    const Region region = random_region(rng, zoned.dims);
    const Field got = ZoneCompressor::decompress_region(zoned, region);
    const Field got_serial =
        ZoneCompressor::decompress_region(zoned, region, false);
    const Field want = slice_region(full, region);
    EXPECT_TRUE(bytes_equal(got, want)) << "query " << q;
    EXPECT_TRUE(bytes_equal(got_serial, want)) << "query " << q;
  }
}

TEST(ZoneCompressor, BoundaryStraddlingRegions) {
  const Field f = smooth_field_3d(40);  // 8 zones of 5 rows
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const ZonedField zoned = ZoneCompressor("SZ3", 8).compress(f, opt);
  const Field full = ZoneCompressor::decompress_all(zoned);
  // Straddle one boundary, several boundaries, and align exactly on one.
  for (const Region& region :
       {Region{{4, 0, 0}, {2, 40, 40}}, Region{{3, 10, 5}, {20, 7, 30}},
        Region{{5, 0, 0}, {5, 40, 40}}, Region{{0, 0, 0}, {40, 40, 40}}}) {
    const Field got = ZoneCompressor::decompress_region(zoned, region);
    EXPECT_TRUE(bytes_equal(got, slice_region(full, region)));
  }
}

TEST(ZoneCompressor, CoversEveryRankAndDtype) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  Rng rng(77);
  for (const Field& f : {noisy_field_1d(600), smooth_field_2d(48),
                         smooth_field_3d(24), double_field_4d(8, 12)}) {
    const ZonedField zoned = ZoneCompressor("SZ3", 4).compress(f, opt);
    const Field full = ZoneCompressor::decompress_all(zoned);
    EXPECT_EQ(full.shape(), f.shape());
    for (int q = 0; q < 3; ++q) {
      const Region region = random_region(rng, zoned.dims);
      const Field got = ZoneCompressor::decompress_region(zoned, region);
      EXPECT_TRUE(bytes_equal(got, slice_region(full, region)))
          << f.name() << " query " << q;
    }
  }
}

TEST(ZoneCompressor, WorksForEveryEblcCodec) {
  const Field f = smooth_field_3d(32);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Region region{{5, 8, 0}, {10, 16, 32}};
  for (const std::string& codec : eblc_names()) {
    const ZonedField zoned = ZoneCompressor(codec, 4).compress(f, opt);
    const Field full = ZoneCompressor::decompress_all(zoned);
    const Field got = ZoneCompressor::decompress_region(zoned, region);
    EXPECT_TRUE(bytes_equal(got, slice_region(full, region))) << codec;
  }
}

TEST(ZoneCompressor, RejectsBadArguments) {
  const Field f = smooth_field_3d(16);
  CompressOptions opt;
  EXPECT_THROW(ZoneCompressor("SZ3", 0), InvalidArgument);
  const ZonedField zoned = ZoneCompressor("SZ3", 4).compress(f, opt);
  EXPECT_THROW(ZoneCompressor::decompress_region(zoned, {{0, 0}, {4, 4}}),
               InvalidArgument);
  EXPECT_THROW(
      ZoneCompressor::decompress_region(zoned, {{0, 0, 0}, {17, 16, 16}}),
      InvalidArgument);
}

// --- zoned containers through every IoTool ----------------------------------

class ZonedContainer : public ::testing::TestWithParam<std::string> {};

TEST_P(ZonedContainer, FooterZoneIndexRoundTrips) {
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);

  auto reader = io_tool(GetParam()).open_chunked_reader(pfs, wrec.path);
  ASSERT_TRUE(reader.index().zoned());
  EXPECT_EQ(reader.index().zones, zone_extents(40, 8));

  // covering() resolves boxes from the footer alone: a box straddling the
  // zone 0/1 boundary (zones of 5 rows) covers exactly those two zones.
  const Region straddle{{4, 0, 0}, {2, 40, 40}};
  EXPECT_EQ(reader.covering(straddle), (std::vector<std::size_t>{0, 1}));
}

TEST_P(ZonedContainer, RandomQueryBoxesMatchSerialReference) {
  // The acceptance loop for partial reads: every random query box decoded
  // through the streamed region pipeline must be bit-identical to the
  // serial fetch-then-decode reference, and to the corresponding slice of
  // the full-field streamed read.
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Field full = run_streamed_read(pfs, wrec.path, config).field;

  Rng rng(101);
  for (int q = 0; q < 6; ++q) {
    const Region region = random_region(rng, {40, 40, 40});
    const auto rec = run_streamed_read_region(pfs, wrec.path, region, config);
    const Field ref = read_region_reference(pfs, wrec.path, region, GetParam());
    EXPECT_TRUE(bytes_equal(rec.field, ref)) << "query " << q;
    EXPECT_TRUE(bytes_equal(rec.field, slice_region(full, region)))
        << "query " << q;
    EXPECT_EQ(rec.field_bytes, rec.field.size_bytes());
    EXPECT_EQ(rec.zones_total, 8);
    EXPECT_EQ(static_cast<std::size_t>(rec.zones_decoded),
              covering_zones(zone_extents(40, 8), region.start[0],
                             region.shape[0])
                  .size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllContainers, ZonedContainer,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

// --- the point of the zone index: fetch scales with the query ---------------

TEST(ZoneRegionRead, BytesFetchedScaleWithQueryNotField) {
  const Field f = smooth_field_3d(48);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);

  const Region one_zone{{0, 0, 0}, {2, 48, 48}};
  const auto small = run_streamed_read_region(pfs, wrec.path, one_zone, config);
  EXPECT_EQ(small.zones_decoded, 1);
  EXPECT_GT(small.bytes_fetched, 0u);
  EXPECT_LT(small.fetch_fraction(), 0.5);

  const Region everything{{0, 0, 0}, {48, 48, 48}};
  const auto all = run_streamed_read_region(pfs, wrec.path, everything, config);
  EXPECT_EQ(all.zones_decoded, 8);
  EXPECT_GT(all.bytes_fetched, small.bytes_fetched);
  // A full-box query fetches every chunk payload, nothing more.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs, wrec.path);
  EXPECT_EQ(all.bytes_fetched, reader.index().total_bytes());
}

TEST(ZoneRegionRead, StreamedOverlapUndercutsSerialSchedule) {
  const Field f = smooth_field_3d(48);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Region region{{8, 0, 0}, {30, 48, 48}};
  const auto rec = run_streamed_read_region(pfs, wrec.path, region, config);
  ASSERT_EQ(rec.zone_fetch_s.size(),
            static_cast<std::size_t>(rec.zones_decoded));
  ASSERT_EQ(rec.zone_decompress_s.size(),
            static_cast<std::size_t>(rec.zones_decoded));
  for (double s : rec.zone_fetch_s) EXPECT_GT(s, 0.0);
  for (double s : rec.zone_decompress_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  EXPECT_GT(rec.fetch_j, 0.0);
  EXPECT_GT(rec.decompress_j, 0.0);
}

// --- robustness -------------------------------------------------------------

class ZoneRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    field_ = smooth_field_3d(24);
    config_.codec = "SZ3";
    StreamConfig stream;
    stream.slabs = 4;
    path_ = run_streamed_compress_write(field_, config_, pfs_, stream).path;
    nchunks_ = 4;
  }

  void corrupt(const std::function<void(Bytes&)>& mutate) {
    Bytes raw = pfs_.read_file(path_);
    mutate(raw);
    pfs_.write_file(path_, raw);
  }

  // Byte offset of zone entry `i`'s field `word` (0 = offset, 1 = size,
  // 2 = row_start, 3 = rows) inside the container's footer.
  std::size_t footer_word(const Bytes& raw, std::size_t i,
                          std::size_t word) const {
    const std::size_t footer_len = 12 + 32 * nchunks_ + 8;
    return raw.size() - footer_len + 12 + 32 * i + 8 * word;
  }

  Region region_{{0, 0, 0}, {24, 24, 24}};
  Field field_;
  PipelineConfig config_;
  PfsSimulator pfs_;
  std::string path_;
  std::size_t nchunks_ = 0;
};

TEST_F(ZoneRobustness, OutOfBoundsExtentFailsCleanly) {
  // Blow up the first entry's size: the overflow-safe extent check must
  // reject the index at open, before any chunk fetch.
  corrupt([&](Bytes& raw) {
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(raw.data() + footer_word(raw, 0, 1), &huge, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
  EXPECT_THROW(read_region_reference(pfs_, path_, region_, "HDF5"),
               CorruptStream);
}

TEST_F(ZoneRobustness, NonContiguousZoneIndexFailsCleanly) {
  // Shift zone 1's row_start: the index no longer partitions the rows.
  corrupt([&](Bytes& raw) {
    const std::uint64_t bad = 17;
    std::memcpy(raw.data() + footer_word(raw, 1, 2), &bad, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
}

TEST_F(ZoneRobustness, ShortZoneCoverageFailsCleanly) {
  // Shrink the last zone so the index stops short of the dataset rows.
  corrupt([&](Bytes& raw) {
    const std::uint64_t bad = 1;
    std::memcpy(raw.data() + footer_word(raw, nchunks_ - 1, 3), &bad, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
}

TEST_F(ZoneRobustness, TruncatedZoneBlobFailsWithoutPartialField) {
  // Halve the first zone's recorded size: the extent stays in bounds, so
  // the open succeeds, but decoding the truncated blob must throw — from
  // both the streamed pipeline and the serial reference — with no partial
  // region escaping.
  corrupt([&](Bytes& raw) {
    std::uint64_t size = 0;
    std::memcpy(&size, raw.data() + footer_word(raw, 0, 1), 8);
    size /= 2;
    std::memcpy(raw.data() + footer_word(raw, 0, 1), &size, 8);
  });
  const Region hits_zone0{{0, 0, 0}, {2, 24, 24}};
  EXPECT_THROW(
      (void)run_streamed_read_region(pfs_, path_, hits_zone0, config_), Error);
  EXPECT_THROW((void)read_region_reference(pfs_, path_, hits_zone0, "HDF5"),
               Error);
  // Queries that never touch the truncated zone still decode.
  const Region other_zones{{12, 0, 0}, {6, 24, 24}};
  const auto rec = run_streamed_read_region(pfs_, path_, other_zones, config_);
  EXPECT_TRUE(bytes_equal(
      rec.field, read_region_reference(pfs_, path_, other_zones, "HDF5")));
}

TEST_F(ZoneRobustness, CorruptZoneBlobFailsWithoutPartialField) {
  // Flip the middle of zone 2's payload: fetch succeeds, decode throws.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs_, path_);
  const auto extent = reader.index().chunks[2];
  corrupt([&](Bytes& raw) {
    for (std::size_t i = 0; i < extent.size; ++i)
      raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  });
  const Region hits_zone2{{13, 0, 0}, {2, 24, 24}};
  EXPECT_THROW(
      (void)run_streamed_read_region(pfs_, path_, hits_zone2, config_), Error);
  EXPECT_THROW((void)read_region_reference(pfs_, path_, hits_zone2, "HDF5"),
               Error);
}

TEST_F(ZoneRobustness, CorruptZoneBlobErrorPathRepeats) {
  // The throwing decode, looped: each throw unwinds the pipeline's task
  // groups while pool workers may still be finishing sibling zones, so
  // every pass exercises group teardown racing a worker's last finish()
  // (a ThreadSanitizer build reports any unsynchronized teardown here).
  auto reader = io_tool("HDF5").open_chunked_reader(pfs_, path_);
  const auto extent = reader.index().chunks[0];
  corrupt([&](Bytes& raw) {
    for (std::size_t i = 0; i < extent.size; ++i)
      raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  });
  for (int pass = 0; pass < 40; ++pass) {
    SCOPED_TRACE(pass);
    EXPECT_THROW((void)run_streamed_read_region(pfs_, path_, region_, config_),
                 Error);
  }
  // The failures leave nothing behind: the intact zones still decode.
  const Region other_zones{{12, 0, 0}, {6, 24, 24}};
  const auto rec = run_streamed_read_region(pfs_, path_, other_zones, config_);
  EXPECT_TRUE(bytes_equal(
      rec.field, read_region_reference(pfs_, path_, other_zones, "HDF5")));
}

TEST_F(ZoneRobustness, OutOfBoundsRegionIsInvalidArgument) {
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, {{0, 0, 0}, {25, 24, 24}},
                                        config_),
               InvalidArgument);
  EXPECT_THROW(
      run_streamed_read_region(pfs_, path_, {{0, 0}, {4, 4}}, config_),
      InvalidArgument);
  EXPECT_THROW(
      read_region_reference(pfs_, path_, {{24, 0, 0}, {1, 1, 1}}, "HDF5"),
      InvalidArgument);
}

// --- every read checks decoded zones against the index ---------------------

// A ragged container (24 rows in zones of 5, 5, 5, 5, 4) whose footer
// extents are rewritten after the write. The extents stay in bounds, so the
// open accepts them; the full read and its serial reference must then
// reject the mismatched zone blobs instead of assembling them.
class ZoneIndexMismatch : public ZoneRobustness {
 protected:
  void SetUp() override {
    field_ = smooth_field_3d(24);
    config_.codec = "SZ3";
    StreamConfig stream;
    stream.slabs = 5;
    path_ = run_streamed_compress_write(field_, config_, pfs_, stream).path;
    nchunks_ = 5;
  }

  // Rewrites zone `to`'s (offset, size) with zone `from`'s.
  void copy_extent(Bytes& raw, const Bytes& orig, std::size_t from,
                   std::size_t to) const {
    std::memcpy(raw.data() + footer_word(raw, to, 0),
                orig.data() + footer_word(orig, from, 0), 16);
  }

  void expect_full_reads_reject() {
    StreamConfig blocking;
    blocking.use_transport = false;
    EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_), CorruptStream);
    EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_, blocking),
                 CorruptStream);
    EXPECT_THROW((void)read_chunked_field(pfs_, path_, "HDF5"),
                 CorruptStream);
  }
};

TEST_F(ZoneIndexMismatch, ZoneExtentPointingAtAnotherZoneFailsCleanly) {
  // Zone 4 (4 rows) now fetches zone 0's 5-row blob: placed unchecked it
  // would write a row past the end of the field.
  corrupt([&](Bytes& raw) { copy_extent(raw, Bytes(raw), 0, 4); });
  expect_full_reads_reject();
}

TEST_F(ZoneIndexMismatch, SwappedZoneExtentsFailCleanly) {
  // Zones 0 and 4 hold each other's blobs: placed unchecked the rows would
  // come back out of order.
  corrupt([&](Bytes& raw) {
    const Bytes orig = raw;
    copy_extent(raw, orig, 0, 4);
    copy_extent(raw, orig, 4, 0);
  });
  expect_full_reads_reject();
}

// --- version-1 back-compat --------------------------------------------------

TEST(ZoneBackCompat, V1ChunkedContainersStillDecodeAndRejectRegionQueries) {
  // Containers written through the original open_chunked path carry no
  // zone index: they must round-trip exactly as before, and partial-region
  // APIs must refuse them cleanly rather than misread the v1 footer.
  const Field f = smooth_field_3d(24);
  PipelineConfig config;
  config.codec = "SZ3";
  PfsSimulator pfs;
  CompressOptions opt;
  opt.error_bound = config.error_bound;
  const Bytes blob = compressor("SZ3").compress(f, opt);

  IoTool& tool = io_tool("HDF5");
  ChunkedDatasetMeta meta;
  meta.name = f.name();
  meta.dims = f.shape().dims_vector();
  auto writer = tool.open_chunked(pfs, "/pfs/v1", meta);
  EXPECT_THROW(writer.append_zone(blob, {0, 24}), InvalidArgument);
  writer.append_chunk(blob);
  writer.close();

  auto reader = tool.open_chunked_reader(pfs, "/pfs/v1");
  EXPECT_FALSE(reader.index().zoned());
  const Region region{{0, 0, 0}, {4, 24, 24}};
  EXPECT_THROW(reader.covering(region), InvalidArgument);
  EXPECT_THROW(run_streamed_read_region(pfs, "/pfs/v1", region, config),
               CorruptStream);
  EXPECT_THROW(read_region_reference(pfs, "/pfs/v1", region, "HDF5"),
               CorruptStream);

  // The full-field streamed read still serves v1 containers bit-for-bit.
  const auto read = run_streamed_read(pfs, "/pfs/v1", config);
  EXPECT_TRUE(bytes_equal(read.field, decompress_any(blob)));
}

TEST(ZoneBackCompat, V1ChunksMustTileTheLeadingDimension) {
  // A v1 container has no zone rows: its chunks are placed in order and
  // must cover dims[0] exactly. Too many rows would overrun the field, too
  // few would leave rows unwritten; both must fail cleanly.
  const Field f = smooth_field_3d(24);
  PipelineConfig config;
  config.codec = "SZ3";
  PfsSimulator pfs;
  CompressOptions opt;
  opt.error_bound = config.error_bound;
  const Bytes blob = compressor("SZ3").compress(f, opt);

  IoTool& tool = io_tool("HDF5");
  ChunkedDatasetMeta meta;
  meta.name = f.name();
  meta.dims = f.shape().dims_vector();
  auto over = tool.open_chunked(pfs, "/pfs/v1-over", meta);
  over.append_chunk(blob);
  over.append_chunk(blob);  // 48 rows for a 24-row dataset
  over.close();
  meta.dims[0] = 30;  // one 24-row chunk for a 30-row dataset
  auto under = tool.open_chunked(pfs, "/pfs/v1-under", meta);
  under.append_chunk(blob);
  under.close();

  for (const char* path : {"/pfs/v1-over", "/pfs/v1-under"}) {
    SCOPED_TRACE(path);
    EXPECT_THROW((void)run_streamed_read(pfs, path, config), CorruptStream);
    EXPECT_THROW((void)read_chunked_field(pfs, path, "HDF5"), CorruptStream);
  }
}

TEST(ZoneBackCompat, ZonedWriterRejectsPlainAppendAndBadPartitions) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  IoTool& tool = io_tool("HDF5");
  ChunkedDatasetMeta meta;
  meta.name = "zs";
  meta.dims = f.shape().dims_vector();
  const Bytes blob(512, std::byte{0x2a});

  auto writer = tool.open_zoned(pfs, "/pfs/z", meta);
  EXPECT_THROW(writer.append_chunk(blob), InvalidArgument);
  EXPECT_THROW(writer.append_zone(blob, {0, 0}), InvalidArgument);
  writer.append_zone(blob, {0, 8});
  // Out-of-order / gapped extents are rejected immediately.
  EXPECT_THROW(writer.append_zone(blob, {9, 7}), InvalidArgument);
  // Closing before the zones cover the dataset rows is rejected.
  EXPECT_THROW(writer.close(), InvalidArgument);
}

}  // namespace
}  // namespace eblcio
