// The paper's stat benchmark (§5.2).
//
// Stage one (untimed): a set of files is created. Stage two (timed): every
// client stats every file; the benchmark reports the *maximum* completion
// time across nodes. With IMCa, the first client to stat a file misses and
// the server-side hook publishes the stat structure; every later stat of
// that file is served by the MCD array.
//
// The paper uses 262144 files on 64 real nodes; the default here is scaled
// down (the EXPERIMENTS.md entry records the scaling) and adjustable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsapi/filesystem.h"
#include "sim/event_loop.h"

namespace imca::workload {

struct StatOptions {
  std::size_t n_files = 16384;  // scaled from the paper's 262144
};

struct StatResult {
  double max_node_seconds = 0;  // the paper's reported metric
  std::uint64_t total_stats = 0;
};

StatResult run_stat_benchmark(
    sim::EventLoop& loop, const std::vector<fsapi::FileSystemClient*>& clients,
    const StatOptions& options);

}  // namespace imca::workload
