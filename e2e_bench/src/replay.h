// The traced run's ops: the streamed write, restart read and region query
// rebuilt serially from the layers' own public calls, one span per call.
//
// Each replay mirrors what run_streamed_compress_write /
// run_streamed_read / run_streamed_read_region do with the default
// transport, minus their producer/consumer overlap, so its container is
// byte-identical to the pipeline's and its decodes equal the pipeline's
// fields (the parity check in main.cpp holds the replay to that).
#pragma once

#include <cstddef>
#include <string>

#include "common/field.h"
#include "common/region.h"
#include "io/pfs.h"
#include "trace.h"
#include "workload.h"

namespace e2e {

// What the entropy stages did during one replayed write.
struct CodecCounters {
  std::size_t codes = 0;       // quantization codes Huffman-coded
  std::size_t huff_bytes = 0;  // Huffman output bytes
  int lz_runs = 0;             // lz_compress calls
  int lz_kept = 0;             // ... whose output was smaller and kept
  double lz_wasted_s = 0.0;    // time of the lz_compress calls discarded
};

// What the sector transport and PFS did during one or more replayed ops,
// from SectorWriter/SectorReader stats() and records().
struct WireCounters {
  std::size_t sectors = 0;
  std::size_t credit_stalls = 0;
  double rpc_s = 0.0;   // modeled
  double xfer_s = 0.0;  // modeled
  std::size_t bytes_written = 0;  // container bytes on the PFS
  std::size_t bytes_read = 0;     // sector payload bytes fetched
};

struct ReplayResult {
  int root = -1;  // op span id in the tracer
  eblcio::Field field;  // decoded field or region (empty for writes)
  std::size_t zones = 0;          // queries: zones fetched and decoded
  std::size_t fetched_bytes = 0;  // queries: compressed bytes fetched
};

ReplayResult traced_write(Tracer& tr, const eblcio::Field& field,
                          const WorkloadSpec& w, eblcio::PfsSimulator& pfs,
                          const std::string& path, CodecCounters& codec,
                          WireCounters& wire);

ReplayResult traced_read(Tracer& tr, eblcio::PfsSimulator& pfs,
                         const std::string& path, WireCounters& wire);

ReplayResult traced_query(Tracer& tr, eblcio::PfsSimulator& pfs,
                          const std::string& path,
                          const eblcio::Region& region, WireCounters& wire);

}  // namespace e2e
