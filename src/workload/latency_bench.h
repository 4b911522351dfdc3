// The paper's latency benchmark (§5.3, §5.4, §5.6).
//
// Write phase: for each record size r (1 byte .. max, powers of two), every
// client writes `records_per_size` records of size r sequentially to its
// file, and the write time for r is the average over those records. Read
// phase: back to offset 0, same sweep with reads. With multiple clients the
// phases and every record size are separated by barriers, and each client
// uses its own file (§5.4) — except in shared mode (§5.6), where only the
// root client writes and every client reads the same file.
//
// Files stay open across phases: IMCa purges a file's cache entries on
// close, and the paper's read phase runs against the state the write phase
// left in the MCDs ("no Read at the client results in a miss").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fsapi/filesystem.h"
#include "sim/event_loop.h"

namespace imca::workload {

struct LatencyOptions {
  std::uint64_t min_record = 1;
  std::uint64_t max_record = 64 * kKiB;
  // Successive record sizes multiply by this (the paper uses 2; benches that
  // only need a few points per decade use larger steps).
  std::uint64_t record_multiplier = 2;
  std::size_t records_per_size = 256;  // scaled from the paper's 1024
  bool shared_file = false;            // §5.6 read/write sharing mode
  bool measure_writes = true;
  // Invoked once per client between the write and read phases — the hook
  // the Lustre cold-cache runs use to unmount/remount (drop client caches).
  std::function<void(std::size_t client_index)> before_read_phase;
};

struct LatencySeries {
  // record size (bytes) -> mean per-op latency (ns), averaged over every
  // client's per-node average, as the paper reports.
  std::map<std::uint64_t, double> write_ns;
  std::map<std::uint64_t, double> read_ns;
};

// Drives all `clients` through the benchmark on `loop`; returns the series.
LatencySeries run_latency_benchmark(
    sim::EventLoop& loop, const std::vector<fsapi::FileSystemClient*>& clients,
    const LatencyOptions& options);

}  // namespace imca::workload
