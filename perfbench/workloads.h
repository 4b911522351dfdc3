// The benchmark's three workloads on cluster::GlusterTestbed.
//
// Every workload is a closed loop: each simulated client is one coroutine on
// the DES loop with one fsapi op outstanding. Inputs (paths, offsets, sizes,
// payload bytes, op order) are generated from the seed before anything is
// timed; a run then goes through two phases on a fresh testbed:
//
//   setup()  — populate the file set (host time counts toward setup_s);
//   run()    — the measured phase, whose ops feed host_ops_per_s and the
//              simulated-latency percentiles.
//
// Every op is checked: an Expected that carries an error, a read whose bytes
// differ from the workload's own record of what it wrote, or a stat whose
// size disagrees with that record counts as a failure. Checks are plain
// code, not assert(), so they hold in optimised builds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/testbed.h"
#include "fsapi/filesystem.h"

namespace perfbench {

using imca::SimDuration;
using imca::SimTime;

// What one phase did, in simulated time and op counts.
struct PhaseResult {
  std::uint64_t ops = 0;     // fsapi ops issued
  std::uint64_t failed = 0;  // errors, wrong bytes, wrong sizes
  // Simulated latency of every op of each kind, measured at the fsapi call.
  std::vector<SimDuration> stat_ns;
  std::vector<SimDuration> read_ns;
  std::vector<SimDuration> write_ns;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Slowest client's time from the phase start to its last op.
  SimDuration makespan = 0;
  // Slowest client's time in the read / write sub-phases (the IOzone
  // throughput denominators). Workloads without separate sub-phases report
  // the makespan for both.
  SimDuration read_phase = 0;
  SimDuration write_phase = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;
  virtual imca::cluster::GlusterTestbedConfig config() const = 0;
  // Bytes of file data the measured phase touches (for the docs' sizing
  // table; compared against MCD memory and page cache by the caller).
  virtual std::uint64_t working_set_bytes() const = 0;
  // Digest of the generated inputs: equal for equal seeds, different
  // otherwise (the self-test's anti-vacuity check).
  virtual std::uint64_t input_digest() const = 0;

  // Populate the file set through `fs` (one entry per client) and leave
  // the per-run state (open handles, the byte oracle) ready for run().
  virtual PhaseResult setup(imca::sim::EventLoop& loop,
                            const std::vector<imca::fsapi::FileSystemClient*>& fs) = 0;
  virtual PhaseResult run(imca::sim::EventLoop& loop,
                          const std::vector<imca::fsapi::FileSystemClient*>& fs) = 0;
};

// Names in the order the benchmark documents them.
const std::vector<std::string>& workload_names();
// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

}  // namespace perfbench
