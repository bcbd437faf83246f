// The three benchmark workloads and the helpers their ops share: seeded
// inputs, PFS configs, region queries and the output oracle's exact
// comparisons.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/field.h"
#include "common/region.h"
#include "core/pipeline.h"
#include "io/pfs.h"

namespace e2e {

struct WorkloadSpec {
  std::string name;
  std::string codec;
  double error_bound = 1e-3;  // value-range relative
  int slabs = 16;             // streamed slabs = container zones
  int queries_per_step = 2;   // region queries after each restart read
  int fields = 3;             // base fields the steps cycle over
  int rotations = 16;         // distinct shifts of each base field
  std::vector<std::size_t> dims{128, 128, 128};
};

// Looks a workload up by name; throws std::invalid_argument when unknown.
const WorkloadSpec& workload(const std::string& name);

eblcio::PipelineConfig pipeline_config(const WorkloadSpec& w);
eblcio::StreamConfig stream_config(const WorkloadSpec& w);

// Base field `k`: NYX density (float32) from a fixed generator seed per k.
eblcio::Field base_field(const WorkloadSpec& w, int k);

// Input `id` of a run seeded `seed`: `base` circularly shifted along every
// axis by offsets drawn from (seed, id). The shift moves the field's
// features relative to slab, zone and query boundaries without redrawing
// its value distribution, so runs with different seeds do the same amount
// of codec work (a fresh NYX draw moves the SZ3 ratio by up to 2x).
eblcio::Field rolled_field(const eblcio::Field& base, std::uint64_t seed,
                           int id);

// The region queries issued against input `id`: alternating dim-0 slabs
// covering 1/8 of the rows and 16^3 boxes, at offsets drawn from
// (seed, id).
std::vector<eblcio::Region> make_queries(const WorkloadSpec& w,
                                         std::uint64_t seed, int id);

// The client count the pipelines hand the PFS contention model: every live
// writer and reader plus this client (core/pipeline.cpp does the same).
int self_inclusive_clients(const eblcio::PfsSimulator& pfs);

// Bit-for-bit equality of dtype, shape and every element.
bool same_field(const eblcio::Field& a, const eblcio::Field& b);

// Copies `region` out of `field` (independent of the library's scatter).
eblcio::Field extract_region(const eblcio::Field& field,
                             const eblcio::Region& region);

}  // namespace e2e
