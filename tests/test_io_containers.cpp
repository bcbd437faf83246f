// HDF5 / NetCDF / ADIOS container tests: whole-file and chunked
// round-trips through the PFS, byte layouts and forged-input rejection, and
// the modeled HDF5-vs-NetCDF cost gap (Fig. 11 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "io/io_tool.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::smooth_field_3d;

TEST(IoRegistry, NamesAndLookup) {
  EXPECT_EQ(io_tool("HDF5").name(), "HDF5");
  EXPECT_EQ(io_tool("netcdf").name(), "NetCDF");
  EXPECT_EQ(io_tool("h5").name(), "HDF5");
  EXPECT_EQ(io_tool("adios").name(), "ADIOS");  // extension tool
  EXPECT_THROW(io_tool("posix"), InvalidArgument);
  // The paper's Sec. IV-D sweep covers exactly HDF5 and NetCDF.
  EXPECT_EQ(io_tool_names().size(), 2u);
}

class ContainerRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(ContainerRoundTrip, FieldThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const Field f = smooth_field_3d(24);
  const IoCost cost = tool.write_field(pfs, "/data/f", f);
  EXPECT_GT(cost.total_seconds(), 0.0);
  EXPECT_GT(cost.bytes_written, f.size_bytes());  // container overhead

  const Field r = tool.read_field(pfs, "/data/f");
  ASSERT_EQ(r.shape(), f.shape());
  for (std::size_t i = 0; i < f.num_elements(); ++i)
    EXPECT_EQ(r.as<float>()[i], f.as<float>()[i]);
}

TEST_P(ContainerRoundTrip, DoubleFieldThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const Field f = double_field_4d(3, 10);
  tool.write_field(pfs, "/data/d", f);
  const Field r = tool.read_field(pfs, "/data/d");
  for (std::size_t i = 0; i < f.num_elements(); ++i)
    EXPECT_EQ(r.as<double>()[i], f.as<double>()[i]);
}

TEST_P(ContainerRoundTrip, BlobThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  Bytes blob(5000);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::byte>(i * 31);
  tool.write_blob(pfs, "/data/b", "compressed", blob);
  EXPECT_EQ(tool.read_blob(pfs, "/data/b", "compressed"), blob);
}

INSTANTIATE_TEST_SUITE_P(BothLibraries, ContainerRoundTrip,
                         ::testing::Values("HDF5", "NetCDF"));

// --- whole-file container pins ---------------------------------------------
//
// Exact container bytes (length + FNV-1a) and every IoCost double of the
// whole-file write path, for each tool over a float field, a double field
// and a blob large enough to split into two HDF5 chunks. The fields are
// built from integer arithmetic only, so the pins do not depend on libm.

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

Field pin_float_field() {
  NdArray<float> arr(Shape{6, 10, 14});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = static_cast<float>((i * 2654435761u) % 1000) / 8.0f;
  return Field("temp", std::move(arr));
}

Field pin_double_field() {
  NdArray<double> arr(Shape{3, 5, 7, 9});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = static_cast<double>((i * 40503u) % 977) / 16.0 - 20.0;
  return Field("pressure", std::move(arr));
}

Bytes pin_blob() {
  Bytes b((1u << 20) + 4321);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::byte>((i * 131 + (i >> 9)) & 0xff);
  return b;
}

struct WholeFilePin {
  const char* tool;
  int payload;  // 0 = float field, 1 = double field, 2 = blob
  std::size_t size;
  std::uint64_t hash;
  double prep_seconds;
  double transfer_seconds;
};

constexpr WholeFilePin kWholeFilePins[] = {
    {"HDF5", 0, 3428u, 0x26a6e5a46ed17913ull, 2.0571333333333334e-05,
     0.00087122428571428587},
    {"HDF5", 1, 7640u, 0x5d87f37edcc4df5full, 2.1273333333333335e-05,
     0.00087272857142857159},
    {"HDF5", 2, 1052987u, 0x269c355ca333fc5bull, 0.00019549783333333334,
     0.001296066785714286},
    {"NetCDF", 0, 3414u, 0x847ec94f2c82530eull, 6.3793333333333338e-05,
     0.0024712192857142858},
    {"NetCDF", 1, 7626u, 0xdd73a2f8fb32ea5aull, 6.8473333333333341e-05,
     0.0024727235714285716},
    {"NetCDF", 2, 1052965u, 0xdfa949ac2908475full, 0.0012299611111111111,
     0.0028960589285714289},
    {"ADIOS", 0, 3434u, 0x091abfee6bd4b3d0ull, 1.042925e-05,
     0.0009212264285714287},
    {"ADIOS", 1, 7646u, 0x545cca0f9546de70ull, 1.0955750000000001e-05,
     0.00092273071428571442},
    {"ADIOS", 2, 1052985u, 0x260b442c09a9c043ull, 0.000141623125,
     0.0013460660714285715},
};

TEST(WholeFilePins, ContainerBytesAndCostsAreBitIdentical) {
  for (const WholeFilePin& pin : kWholeFilePins) {
    SCOPED_TRACE(std::string(pin.tool) + " payload " +
                 std::to_string(pin.payload));
    IoTool& tool = io_tool(pin.tool);
    PfsSimulator pfs;
    IoCost cost;
    if (pin.payload == 0)
      cost = tool.write_field(pfs, "/pin", pin_float_field());
    if (pin.payload == 1)
      cost = tool.write_field(pfs, "/pin", pin_double_field());
    if (pin.payload == 2)
      cost = tool.write_blob(pfs, "/pin", "ckpt", pin_blob());
    const Bytes raw = pfs.read_file("/pin");
    EXPECT_EQ(raw.size(), pin.size);
    EXPECT_EQ(fnv1a(raw), pin.hash);
    EXPECT_EQ(cost.prep_seconds, pin.prep_seconds);
    EXPECT_EQ(cost.transfer_seconds, pin.transfer_seconds);
    EXPECT_EQ(cost.bytes_written, pin.size);
  }
}

// --- whole-file containers through the public API -------------------------
//
// Corruption tests write a container, fetch its bytes with pfs.read_file,
// edit them, put them back with pfs.write_file and read again.

template <typename Edit>
void edit_container(PfsSimulator& pfs, const std::string& path, Edit edit) {
  Bytes raw = pfs.read_file(path);
  edit(raw);
  pfs.write_file(path, raw);
}

void put_u64(Bytes& raw, std::size_t at, std::uint64_t v) {
  std::memcpy(raw.data() + at, &v, sizeof(v));
}

std::uint64_t get_u64(const Bytes& raw, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, raw.data() + at, sizeof(v));
  return v;
}

Bytes pattern_blob(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>((i * 37 + 11) & 0xff);
  return b;
}

// Where the dataset count sits: after the HDF5 magic + version, after the
// NetCDF magic, after the ADIOS footer magic.
std::size_t dataset_count_offset(const std::string& tool, const Bytes& raw) {
  if (tool == "HDF5") return 6;
  if (tool == "NetCDF") return 4;
  return static_cast<std::size_t>(get_u64(raw, raw.size() - 8)) + 4;
}

class WholeFile : public ::testing::TestWithParam<std::string> {};

TEST_P(WholeFile, MissingNameIsInvalidArgument) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  tool.write_blob(pfs, "/w/b", "alpha", pattern_blob(64));
  EXPECT_EQ(tool.read_blob(pfs, "/w/b", "alpha"), pattern_blob(64));
  EXPECT_THROW(tool.read_blob(pfs, "/w/b", "gamma"), InvalidArgument);
}

TEST_P(WholeFile, ContentAttributeRoundTrips) {
  // write_blob tags the dataset content=eblc-compressed: the pair is in
  // the container bytes, the reader walks past it to the payload, and a
  // forged value length is caught.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const Bytes blob = pattern_blob(300);
  tool.write_blob(pfs, "/w/a", "x", blob);
  Bytes attr;
  append_string(attr, "content");
  append_string(attr, "eblc-compressed");
  const Bytes raw = pfs.read_file("/w/a");
  const auto at = std::search(raw.begin(), raw.end(), attr.begin(), attr.end());
  ASSERT_NE(at, raw.end());
  EXPECT_EQ(tool.read_blob(pfs, "/w/a", "x"), blob);

  const std::size_t value_len =
      static_cast<std::size_t>(at - raw.begin()) + 4 + 7;
  edit_container(pfs, "/w/a", [&](Bytes& b) {
    b[value_len] = std::byte{0xff};
    b[value_len + 1] = std::byte{0xff};
  });
  EXPECT_THROW(tool.read_blob(pfs, "/w/a", "x"), CorruptStream);
}

TEST_P(WholeFile, RejectsCorruptMagic) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  tool.write_blob(pfs, "/w/b", "x", pattern_blob(100));
  tool.write_field(pfs, "/w/f", smooth_field_3d(8));
  for (const char* path : {"/w/b", "/w/f"})
    edit_container(pfs, path, [](Bytes& b) { b[0] ^= std::byte{0x5a}; });
  EXPECT_THROW(tool.read_blob(pfs, "/w/b", "x"), CorruptStream);
  EXPECT_THROW(tool.read_field(pfs, "/w/f"), CorruptStream);
  pfs.write_file("/w/zero", Bytes(16, std::byte{0}));
  EXPECT_THROW(tool.read_blob(pfs, "/w/zero", "x"), CorruptStream);
}

TEST_P(WholeFile, RejectsDatasetCountOtherThanOne) {
  // A whole-file container holds exactly one dataset; the u32 count stays
  // in the bytes and any other value is corrupt.
  IoTool& tool = io_tool(GetParam());
  for (std::uint32_t count : {0u, 2u, 0xffffffffu}) {
    PfsSimulator pfs;
    tool.write_blob(pfs, "/w/b", "x", pattern_blob(100));
    tool.write_field(pfs, "/w/f", smooth_field_3d(8));
    for (const char* path : {"/w/b", "/w/f"}) {
      edit_container(pfs, path, [&](Bytes& b) {
        const std::size_t at = dataset_count_offset(GetParam(), b);
        ASSERT_EQ(b[at], std::byte{1});
        std::memcpy(b.data() + at, &count, sizeof(count));
      });
    }
    EXPECT_THROW(tool.read_blob(pfs, "/w/b", "x"), CorruptStream);
    EXPECT_THROW(tool.read_field(pfs, "/w/f"), CorruptStream);
  }
}

TEST_P(WholeFile, TransferIsWritePlusLayoutSyncs) {
  // NetCDF rewrites its header at enddef and close (two opens), ADIOS
  // commits its footer index (one RPC), and HDF5's inline chunk table needs
  // no separate commit.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const IoCost cost = tool.write_blob(pfs, "/w/b", "x", pattern_blob(5000));
  PfsSimulator replay;
  const double write_s =
      replay.write_file("/w/b", pfs.read_file("/w/b")).seconds;
  const PfsConfig& c = pfs.config();
  double expected = write_s;
  if (GetParam() == "NetCDF") expected += 2 * c.open_latency_s;
  if (GetParam() == "ADIOS") expected += c.rpc_latency_s;
  EXPECT_EQ(cost.transfer_seconds, expected);
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, WholeFile,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

TEST(WholeFileLayouts, PayloadPlacement) {
  // NetCDF: header then data; ADIOS: data (after the magic) then footer;
  // HDF5: metadata then the length-prefixed chunk.
  const Bytes blob = pattern_blob(777);
  PfsSimulator pfs;
  for (const char* t : {"HDF5", "NetCDF", "ADIOS"})
    io_tool(t).write_blob(pfs, std::string("/l/") + t, "x", blob);
  const Bytes nc = pfs.read_file("/l/NetCDF");
  EXPECT_TRUE(std::equal(blob.begin(), blob.end(), nc.end() - 777));
  const Bytes bp = pfs.read_file("/l/ADIOS");
  EXPECT_TRUE(std::equal(blob.begin(), blob.end(), bp.begin() + 4));
  const Bytes h5 = pfs.read_file("/l/HDF5");
  EXPECT_TRUE(std::equal(blob.begin(), blob.end(), h5.end() - 777));
  EXPECT_EQ(get_u64(h5, h5.size() - 777 - 8), 777u);
}

TEST(WholeFileLayouts, HDF5ChunkTableSplitsLargeData) {
  // 3 MiB lands as three 1 MiB chunks: two more u64 length prefixes than a
  // one-chunk dataset.
  PfsSimulator pfs;
  const Bytes big = pattern_blob(3u << 20);
  io_tool("HDF5").write_blob(pfs, "/h5/big", "big", big);
  io_tool("HDF5").write_blob(pfs, "/h5/small", "big", pattern_blob(1));
  EXPECT_EQ(pfs.read_file("/h5/big").size() -
                pfs.read_file("/h5/small").size(),
            (3u << 20) - 1 + 2 * 8);
  EXPECT_EQ(io_tool("HDF5").read_blob(pfs, "/h5/big", "big"), big);
}

// --- forged whole-file containers ------------------------------------------
//
// Each forgery is applied to a blob container and to a field container and
// must surface as CorruptStream from read_blob and read_field.

template <typename Forge>
void expect_forgery_rejected(const std::string& tool_name, Forge forge) {
  IoTool& tool = io_tool(tool_name);
  PfsSimulator pfs;
  const Field f = smooth_field_3d(12);
  tool.write_blob(pfs, "/forged/b", "x", pattern_blob(4000));
  tool.write_field(pfs, "/forged/f", f);
  edit_container(pfs, "/forged/b", [&](Bytes& b) { forge(b, 4000); });
  edit_container(pfs, "/forged/f",
                 [&](Bytes& b) { forge(b, f.size_bytes()); });
  EXPECT_THROW(tool.read_blob(pfs, "/forged/b", "x"), CorruptStream);
  EXPECT_THROW(tool.read_field(pfs, "/forged/f"), CorruptStream);
}

TEST(ForgedWholeFile, AdiosSegmentOffsetThatWrapsThrows) {
  // Footer tail: ..., u64 offset, u64 size, u64 footer_start. offset + size
  // wraps to 8, which a sum-based bound would accept.
  expect_forgery_rejected("ADIOS", [](Bytes& b, std::size_t) {
    put_u64(b, b.size() - 24, ~std::uint64_t{0} - 7);
    put_u64(b, b.size() - 16, 16);
  });
}

TEST(ForgedWholeFile, AdiosFooterStartThatWrapsThrows) {
  // footer_start + 8 wraps to 4.
  expect_forgery_rejected("ADIOS", [](Bytes& b, std::size_t) {
    put_u64(b, b.size() - 8, ~std::uint64_t{0} - 3);
  });
}

TEST(ForgedWholeFile, FieldDimsPastThePayloadThrow) {
  // The leading dim forged to 2^40: read_field must reject it against the
  // payload size before it allocates the array.
  for (const char* t : {"HDF5", "NetCDF", "ADIOS"}) {
    SCOPED_TRACE(t);
    PfsSimulator pfs;
    io_tool(t).write_field(pfs, "/forged/f", smooth_field_3d(12));
    edit_container(pfs, "/forged/f", [](Bytes& b) {
      Bytes dims;
      for (int i = 0; i < 3; ++i) append_pod<std::uint64_t>(dims, 12);
      const auto at = std::search(b.begin(), b.end(), dims.begin(), dims.end());
      ASSERT_NE(at, b.end());
      put_u64(b, static_cast<std::size_t>(at - b.begin()),
              std::uint64_t{1} << 40);
    });
    EXPECT_THROW(io_tool(t).read_field(pfs, "/forged/f"), CorruptStream);
  }
}

TEST(ForgedWholeFile, HDF5DatasetTotalPastTheFileThrows) {
  // Tail: u64 total, u32 nchunks, u64 chunk length, payload. A 2^45 total
  // must not size an allocation.
  expect_forgery_rejected("HDF5", [](Bytes& b, std::size_t payload) {
    const std::size_t total_at = b.size() - payload - 8 - 4 - 8;
    ASSERT_EQ(get_u64(b, total_at), payload);
    put_u64(b, total_at, std::uint64_t{1} << 45);
  });
}

TEST(IoCosts, NetCdfCostsMoreThanHdf5) {
  // The Fig. 11 finding, from mechanism: classic-model staging + header
  // rewrites make NetCDF writes several times more expensive.
  PfsSimulator pfs;
  const Field f = smooth_field_3d(48);
  const IoCost h5 = io_tool("HDF5").write_field(pfs, "/h5", f);
  const IoCost nc = io_tool("NetCDF").write_field(pfs, "/nc", f);
  EXPECT_GT(nc.total_seconds(), h5.total_seconds() * 2.0);
  EXPECT_LT(nc.total_seconds(), h5.total_seconds() * 12.0);
}

TEST(IoCosts, SmallBlobsCheaperThanLargeFields) {
  // The core compressed-I/O effect: a CR~50 blob writes much faster. The
  // field must be large enough that transfer (not open latency) dominates,
  // as with the paper's multi-hundred-MB data sets.
  PfsSimulator pfs;
  const Field f = smooth_field_3d(128);
  const Bytes small_blob(f.size_bytes() / 50, std::byte{3});
  const IoCost orig = io_tool("HDF5").write_field(pfs, "/o", f);
  const IoCost comp =
      io_tool("HDF5").write_blob(pfs, "/c", "x", small_blob);
  EXPECT_LT(comp.total_seconds() * 5.0, orig.total_seconds());
}

TEST(IoCosts, ContentionPropagatesToContainers) {
  PfsSimulator pfs;
  const Field f = smooth_field_3d(32);
  const IoCost solo = io_tool("HDF5").write_field(pfs, "/s", f, 1);
  const IoCost busy = io_tool("HDF5").write_field(pfs, "/b", f, 512);
  EXPECT_GT(busy.transfer_seconds, solo.transfer_seconds * 2.0);
}

// --- chunked datasets (append_chunk / read_chunk through the footer index) --

class ChunkedDataset : public ::testing::TestWithParam<std::string> {
 protected:
  static Bytes chunk_bytes(std::size_t n, std::uint8_t tag) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i)
      b[i] = static_cast<std::byte>((i * 131 + tag) & 0xff);
    return b;
  }
};

TEST_P(ChunkedDataset, RoundTripsBitForBit) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;

  ChunkedDatasetMeta meta;
  meta.name = "slabs";
  meta.dtype_code = 2;
  meta.dims = {40, 30, 20};
  meta.attributes["content"] = "eblc-compressed";

  std::vector<Bytes> chunks;
  for (int i = 0; i < 5; ++i)
    chunks.push_back(chunk_bytes(10000 + 997 * i, static_cast<std::uint8_t>(i)));

  auto writer = tool.open_chunked(pfs, "/c/ds", meta);
  EXPECT_GT(writer.open_cost().total_seconds(), 0.0);
  std::size_t payload = 0;
  for (const Bytes& c : chunks) {
    const IoCost cost = writer.append_chunk(c);
    EXPECT_GT(cost.total_seconds(), 0.0);
    payload += c.size();
  }
  EXPECT_EQ(writer.payload_bytes(), payload);
  EXPECT_EQ(writer.chunks_written(), chunks.size());
  const IoCost close_cost = writer.close();
  EXPECT_GT(close_cost.total_seconds(), 0.0);
  EXPECT_TRUE(writer.closed());
  EXPECT_THROW(writer.append_chunk(chunks[0]), InvalidArgument);

  auto reader = tool.open_chunked_reader(pfs, "/c/ds");
  const ChunkIndex& index = reader.index();
  EXPECT_EQ(index.meta.name, "slabs");
  EXPECT_EQ(index.meta.dims, meta.dims);
  EXPECT_EQ(index.meta.attributes.at("content"), "eblc-compressed");
  ASSERT_EQ(index.chunks.size(), chunks.size());
  EXPECT_EQ(index.total_bytes(), payload);
  EXPECT_GT(reader.open_cost().total_seconds(), 0.0);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    IoCost cost;
    EXPECT_EQ(reader.read_chunk(i, &cost), chunks[i]);
    EXPECT_GT(cost.total_seconds(), 0.0);
  }
  EXPECT_THROW(reader.read_chunk(chunks.size()), InvalidArgument);
}

TEST_P(ChunkedDataset, EmptyDatasetRoundTrips) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  ChunkedDatasetMeta meta;
  meta.name = "empty";
  auto writer = tool.open_chunked(pfs, "/c/empty", meta);
  writer.close();
  auto reader = tool.open_chunked_reader(pfs, "/c/empty");
  EXPECT_EQ(reader.index().chunks.size(), 0u);
  EXPECT_EQ(reader.index().meta.name, "empty");
}

TEST_P(ChunkedDataset, RejectsForeignAndCorruptContainers) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  // Another tool's chunked container is refused by name.
  const std::string other = GetParam() == "HDF5" ? "NetCDF" : "HDF5";
  ChunkedDatasetMeta meta;
  meta.name = "x";
  auto writer = io_tool(other).open_chunked(pfs, "/c/foreign", meta);
  writer.append_chunk(Bytes(100, std::byte{1}));
  writer.close();
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/foreign"), CorruptStream);

  // A non-chunked file is rejected cleanly.
  pfs.write_file("/c/garbage", Bytes(64, std::byte{0xab}));
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/garbage"), CorruptStream);
  pfs.write_file("/c/tiny", Bytes(4, std::byte{1}));
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/tiny"), CorruptStream);
}

INSTANTIATE_TEST_SUITE_P(AllTools, ChunkedDataset,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

TEST(ChunkedCosts, MechanismGapShowsUpInChunkStreams) {
  // The Fig. 11 mechanism carries over to chunked streaming: NetCDF stages
  // every chunk through its conversion buffer and rewrites the header at
  // close, so the same chunk stream costs more than HDF5's direct layout.
  PfsSimulator pfs;
  const Bytes chunk(2u << 20, std::byte{3});
  double total[2] = {0.0, 0.0};
  const char* tools[2] = {"HDF5", "NetCDF"};
  for (int t = 0; t < 2; ++t) {
    ChunkedDatasetMeta meta;
    meta.name = "m";
    auto writer =
        io_tool(tools[t]).open_chunked(pfs, std::string("/c/") + tools[t], meta);
    total[t] += writer.open_cost().total_seconds();
    for (int i = 0; i < 4; ++i)
      total[t] += writer.append_chunk(chunk).total_seconds();
    total[t] += writer.close().total_seconds();
  }
  EXPECT_GT(total[1], total[0] * 1.5);
}

}  // namespace
}  // namespace eblcio
