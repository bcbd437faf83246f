// Streaming pipeline tests: PFS append/ranged-read semantics, chunked
// container round-trips through the IoTool formats, the compress/write
// overlap the chunked mode exists for, and the symmetric fetch/decompress
// overlap on the read side — plus robustness (corrupt slabs and chunk
// indexes must fail cleanly, with no partial field escaping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "common/error.h"
#include "core/pipeline.h"
#include "io/io_tool.h"
#include "io/pfs.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_3d;

TEST(PfsAppend, AppendEqualsWholeFileContent) {
  PfsSimulator pfs;
  Bytes whole;
  auto stream = pfs.open_append("/pfs/parts");
  for (int i = 0; i < 5; ++i) {
    Bytes part(300000 + i * 1000, static_cast<std::byte>(i + 1));
    whole.insert(whole.end(), part.begin(), part.end());
    stream.append(part);
  }
  EXPECT_EQ(stream.bytes_written(), whole.size());
  EXPECT_EQ(pfs.file_size("/pfs/parts"), whole.size());
  EXPECT_EQ(pfs.read_file("/pfs/parts"), whole);
}

TEST(PfsAppend, OpenCostChargedOnceAndStripesFill) {
  PfsSimulator pfs;
  const Bytes small(1000, std::byte{7});
  const auto first = pfs.append_file("/pfs/a", small);
  const auto second = pfs.append_file("/pfs/a", small);
  // Creation pays open/metadata latency; the follow-up append does not.
  EXPECT_GT(first.seconds, second.seconds);
  EXPECT_GT(second.seconds, 0.0);
  // Both fit in the first stripe unit: no extra stripe allocated.
  EXPECT_EQ(pfs.file_size("/pfs/a"), 2000u);
  const auto usage = pfs.ost_usage();
  EXPECT_EQ(std::accumulate(usage.begin(), usage.end(), std::size_t{0}),
            2000u);
}

TEST(PfsAppend, TruncatesOnOpenAppend) {
  PfsSimulator pfs;
  pfs.write_file("/pfs/x", Bytes(100, std::byte{1}));
  auto stream = pfs.open_append("/pfs/x");
  stream.append(Bytes(10, std::byte{2}));
  EXPECT_EQ(pfs.file_size("/pfs/x"), 10u);
}

// --- streamed write ---------------------------------------------------------

TEST(StreamPipeline, RoundTripHoldsBound) {
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.slabs, 8);
  EXPECT_EQ(rec.io_library, "HDF5");
  EXPECT_EQ(rec.original_bytes, f.size_bytes());
  EXPECT_GT(rec.ratio(), 1.0);
  // Independent cross-check of the container accounting: the header (up
  // to the first chunk), the chunk payloads, and the zone-index footer
  // (magic + count + 32 bytes per zone entry + trailing start offset)
  // must tile the stored container exactly.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs, rec.path);
  const auto& chunks = reader.index().chunks;
  ASSERT_EQ(chunks.size(), 8u);
  ASSERT_TRUE(reader.index().zoned());
  const std::size_t footer_bytes = 4 + 8 + 32 * chunks.size() + 8;
  EXPECT_EQ(chunks.front().offset + reader.index().total_bytes() +
                footer_bytes,
            rec.compressed_bytes);
  EXPECT_EQ(pfs.file_size(rec.path), rec.compressed_bytes);

  const auto read = run_streamed_read(pfs, rec.path, config);
  ASSERT_EQ(read.field.shape(), f.shape());
  EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound));
}

TEST(StreamPipeline, ChunkedStreamingBeatsSerialCompressThenWrite) {
  // The point of the chunked mode: slab i compresses while the container
  // writes slab i-1, so the modeled end-to-end time undercuts the serial
  // compress-everything-then-write-everything schedule.
  const Field f = smooth_field_3d(64);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  ASSERT_EQ(rec.slab_compress_s.size(), 8u);
  ASSERT_EQ(rec.slab_write_s.size(), 8u);
  for (double s : rec.slab_compress_s) EXPECT_GT(s, 0.0);
  for (double s : rec.slab_write_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  // Overlap can never beat the sum of the slower stage plus one unit of
  // the faster one; sanity-bound the model from below too.
  const double compress_total = std::accumulate(
      rec.slab_compress_s.begin(), rec.slab_compress_s.end(), 0.0);
  EXPECT_GE(rec.streamed_total_s, compress_total);
  // Energy was charged by both stages through the shared monitor.
  EXPECT_GT(rec.compress_j, 0.0);
  EXPECT_GT(rec.write_j, 0.0);
}

TEST(StreamPipeline, WorksForEveryEblcCodec) {
  const Field f = smooth_field_3d(32);
  for (const std::string codec : {"SZ2", "SZ3", "ZFP", "QoZ", "SZx"}) {
    PfsSimulator pfs;
    PipelineConfig config;
    config.codec = codec;
    config.error_bound = 1e-3;
    StreamConfig stream;
    stream.slabs = 4;
    const auto rec = run_streamed_compress_write(f, config, pfs, stream);
    const auto read = run_streamed_read(pfs, rec.path, config);
    EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound))
        << codec;
  }
}

TEST(StreamPipeline, SingleSlabDegeneratesGracefully) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  StreamConfig stream;
  stream.slabs = 1;
  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.slabs, 1);
  const auto read = run_streamed_read(pfs, rec.path, config);
  EXPECT_EQ(read.field.shape(), f.shape());
}

TEST(StreamPipeline, RejectsBadConfig) {
  const Field f = smooth_field_3d(8);
  PfsSimulator pfs;
  PipelineConfig config;
  StreamConfig bad;
  bad.slabs = 0;
  EXPECT_THROW(run_streamed_compress_write(f, config, pfs, bad),
               InvalidArgument);
  bad.slabs = 2;
  bad.queue_depth = 0;
  EXPECT_THROW(run_streamed_compress_write(f, config, pfs, bad),
               InvalidArgument);
}

// --- streamed write through every container ---------------------------------

class StreamAllContainers : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamAllContainers, WriteStreamsReadStreamsBitParity) {
  // The acceptance loop: write via the chunk API, read via the pipeline,
  // and require the streamed field bit-for-bit identical to the serial
  // fetch-then-decompress reference — in each of the three containers.
  const Field f = smooth_field_3d(32);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 6;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.io_library, io_tool(GetParam()).name());
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);

  const auto read = run_streamed_read(pfs, rec.path, config);
  const Field serial = read_chunked_field(pfs, rec.path, GetParam());
  ASSERT_EQ(read.field.shape(), serial.shape());
  const auto streamed_bytes = read.field.bytes();
  const auto serial_bytes = serial.bytes();
  ASSERT_EQ(streamed_bytes.size(), serial_bytes.size());
  EXPECT_TRUE(std::equal(streamed_bytes.begin(), streamed_bytes.end(),
                         serial_bytes.begin()));
  EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound));
}

INSTANTIATE_TEST_SUITE_P(AllContainers, StreamAllContainers,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

// --- streamed read ----------------------------------------------------------

TEST(StreamRead, FetchOverlapsDecompression) {
  // The read-side mirror: the PFS fetch of slab i overlaps decompression
  // of slab i-1, so the streamed makespan undercuts the serial
  // fetch-everything-then-decompress-everything schedule.
  const Field f = smooth_field_3d(64);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const auto rec = run_streamed_read(pfs, wrec.path, config, stream);
  ASSERT_EQ(rec.zones_decoded, 8);
  ASSERT_EQ(rec.zone_fetch_s.size(), 8u);
  ASSERT_EQ(rec.zone_decompress_s.size(), 8u);
  for (double s : rec.zone_fetch_s) EXPECT_GT(s, 0.0);
  for (double s : rec.zone_decompress_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  // The pipeline can never finish before the decompress stage alone.
  const double decompress_total = std::accumulate(
      rec.zone_decompress_s.begin(), rec.zone_decompress_s.end(), 0.0);
  EXPECT_GE(rec.streamed_total_s, decompress_total);
  // Both stages charged energy through the shared monitor.
  EXPECT_GT(rec.fetch_j, 0.0);
  EXPECT_GT(rec.decompress_j, 0.0);
  EXPECT_EQ(rec.container_bytes, wrec.compressed_bytes);
  EXPECT_EQ(rec.field_bytes, f.size_bytes());
}

TEST(StreamRead, RegistersWithReaderRegistry) {
  const Field f = smooth_field_3d(24);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  const auto wrec = run_streamed_compress_write(f, config, pfs);
  EXPECT_GE(pfs.peak_concurrent_writers(), 1);
  pfs.reset_reader_peak();
  EXPECT_EQ(pfs.peak_concurrent_readers(), 0);
  (void)run_streamed_read(pfs, wrec.path, config);
  EXPECT_GE(pfs.peak_concurrent_readers(), 1);
  EXPECT_EQ(pfs.concurrent_readers(), 0);  // scope released
}

TEST(StreamRead, WrongToolFailsCleanly) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  config.io_library = "HDF5";
  const auto wrec = run_streamed_compress_write(f, config, pfs);
  PipelineConfig wrong = config;
  wrong.io_library = "NetCDF";
  EXPECT_THROW(run_streamed_read(pfs, wrec.path, wrong), CorruptStream);
}

// --- robustness: corrupt containers must fail cleanly ------------------------

class StreamReadRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    field_ = smooth_field_3d(24);
    config_.codec = "SZ3";
    config_.error_bound = 1e-3;
    StreamConfig stream;
    stream.slabs = 4;
    path_ = run_streamed_compress_write(field_, config_, pfs_, stream).path;
  }

  // Rewrites the container with `mutate` applied to its bytes.
  void corrupt(const std::function<void(Bytes&)>& mutate) {
    Bytes raw = pfs_.read_file(path_);
    mutate(raw);
    pfs_.write_file(path_, raw);
  }

  Field field_;
  PipelineConfig config_;
  PfsSimulator pfs_;
  std::string path_;
};

TEST_F(StreamReadRobustness, TruncatedContainerFailsCleanly) {
  corrupt([](Bytes& raw) { raw.resize(raw.size() / 2); });
  EXPECT_THROW(run_streamed_read(pfs_, path_, config_), Error);
  EXPECT_THROW(read_chunked_field(pfs_, path_, config_.io_library), Error);
}

TEST_F(StreamReadRobustness, UnclosedContainerFailsCleanly) {
  // A writer that never committed its footer: the trailing 8 bytes are
  // compressed payload, not a footer offset.
  IoTool& tool = io_tool(config_.io_library);
  ChunkedDatasetMeta meta;
  meta.name = "unclosed";
  auto writer = tool.open_chunked(pfs_, "/pfs/unclosed", meta);
  writer.append_chunk(Bytes(4096, std::byte{0x5a}));
  EXPECT_THROW(run_streamed_read(pfs_, "/pfs/unclosed", config_), Error);
}

TEST_F(StreamReadRobustness, CorruptedSlabFailsWithoutPartialField) {
  // Flip bytes in the middle of the first chunk's payload: the slab's
  // decompression must throw and run_streamed_read must not hand back a
  // partially reconstructed field.
  IoTool& tool = io_tool(config_.io_library);
  auto reader = tool.open_chunked_reader(pfs_, path_);
  const auto extent = reader.index().chunks.front();
  corrupt([&](Bytes& raw) {
    for (std::size_t i = 0; i < extent.size; ++i)
      raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  });
  EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_), Error);
}

TEST_F(StreamReadRobustness, BadChunkIndexFailsCleanly) {
  // Point the footer's first extent past end of file: the ranged fetch
  // must reject it instead of crashing (overflow-safe extent check).
  IoTool& tool = io_tool(config_.io_library);
  auto reader = tool.open_chunked_reader(pfs_, path_);
  const std::size_t nchunks = reader.index().chunks.size();
  corrupt([&](Bytes& raw) {
    // Zoned footer layout: [magic u32][nchunks u64]
    // [(offset,size,row_start,rows) u64 quads][footer_start u64];
    // locate the first entry and blow up its size.
    const std::size_t footer_len = 12 + 32 * nchunks + 8;
    const std::size_t first_extent = raw.size() - footer_len + 12;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(raw.data() + first_extent + 8, &huge, 8);
  });
  EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_), Error);
}

}  // namespace
}  // namespace eblcio
