// IOzone-like sequential throughput workload (§3/Fig 1 and §5.5/Fig 9).
//
// Each client ("IOzone thread" on its own node) writes its own file
// sequentially, then — after a barrier — reads it back sequentially. The
// reported metric is aggregate read bandwidth: total bytes read divided by
// the wall time of the slowest reader, which is how multi-stream IOzone
// numbers aggregate.
//
// The file size is scaled down from the paper's 1 GB (recorded per bench in
// EXPERIMENTS.md together with the equally scaled server-memory and
// MCD-memory limits, preserving the working-set : cache ratios).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fsapi/filesystem.h"
#include "sim/event_loop.h"

namespace imca::workload {

struct IozoneOptions {
  std::uint64_t file_bytes = 128 * kMiB;    // scaled from the paper's 1 GB
  std::uint64_t request_size = 256 * kKiB;  // IOzone transfer size
  // Invoked once per client between the write and read phases (Lustre cold
  // runs drop the client caches here).
  std::function<void(std::size_t client_index)> before_read_phase;
};

struct IozoneResult {
  double aggregate_read_mbps = 0;
  double aggregate_write_mbps = 0;
  std::uint64_t bytes_read = 0;
};

IozoneResult run_iozone(sim::EventLoop& loop,
                        const std::vector<fsapi::FileSystemClient*>& clients,
                        const IozoneOptions& options);

}  // namespace imca::workload
