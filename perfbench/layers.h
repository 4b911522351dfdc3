// Per-layer measurement from outside the program: counter and station
// snapshots read through public accessors, and host timings of the layers'
// public functions replayed over a recorded op stream.
//
// Layers are named after src/ modules: sim, net, memcache, mcclient, imca,
// gluster, store, buffer (common/buffer). README.md lists every metric and
// the end-to-end metric it should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

// One reported value. `samples` is the observation count behind a
// percentile or the base of a ratio (0 when neither applies).
// `deterministic` marks values that depend only on the seed — simulated
// time and counts — which the self-test compares bit for bit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  bool deterministic = false;
};

const Metric* find_metric(const std::vector<Metric>& ms,
                          const std::string& name);

// Busy and queued time of one FifoResource on one fabric node.
struct StationSample {
  std::string kind;     // client | mcd | brick
  std::string station;  // cpu | tx | rx
  double busy_ns = 0;
  double queued_ns = 0;
  double servers = 1;
};

// Cumulative state of every layer at one instant of a run.
struct Snapshot {
  imca::SimTime now = 0;
  std::map<std::string, double> counters;
  std::vector<StationSample> stations;  // same order in every snapshot
};

Snapshot snapshot(imca::cluster::GlusterTestbed& tb);

// Counts, ratios and station figures of the phase between two snapshots.
// `ops` is the phase's fsapi op count (the per-op denominators).
void add_layer_counts(std::vector<Metric>& out, const Snapshot& before,
                      const Snapshot& after, std::uint64_t ops,
                      std::uint64_t bytes_read);

// Host ns per call and calls per fsapi op of the layers' public functions
// (core::data_key/stat_key, the mcclient selector, memcache::encode_get,
// handle_request and parse_get_response, store::ObjectStore), replaying
// `spans` in passes for about `budget_s` host seconds (at least three
// passes) and reporting the median pass. Returns false if the replay's own
// consistency check failed (a replayed get missed).
bool add_replay_timings(std::vector<Metric>& out,
                        const std::vector<Span>& spans,
                        const imca::cluster::GlusterTestbedConfig& cfg,
                        double budget_s);

}  // namespace perfbench
