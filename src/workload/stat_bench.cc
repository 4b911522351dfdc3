#include "workload/stat_bench.h"

#include <algorithm>
#include <cassert>

#include "sim/sync.h"

namespace imca::workload {
namespace {

// File i of the set is kFilePrefix + i.
constexpr char kFilePrefix[] = "/bench/statfiles/f";

sim::Task<void> stat_client(sim::EventLoop& loop,
                            fsapi::FileSystemClient& fs,
                            std::size_t client_index, std::size_t n_clients,
                            StatOptions opt, sim::Barrier& barrier,
                            double& max_seconds, std::uint64_t& total) {
  // Stage one (untimed): the first client materializes the file set.
  if (client_index == 0) {
    for (std::size_t i = 0; i < opt.n_files; ++i) {
      auto f = co_await fs.create(kFilePrefix + std::to_string(i));
      assert(f.has_value());
      (void)co_await fs.close(*f);
    }
  }
  co_await barrier.arrive_and_wait();

  // Stage two (timed): stat every file; report the slowest node. Each node
  // starts its sweep at a different point of the file set and wraps, so the
  // nodes do not stat the same file at the same instant — in the paper the
  // 64 physical nodes drift apart naturally; a deterministic simulation
  // needs the stagger made explicit.
  const std::size_t start = client_index * opt.n_files / n_clients;
  const SimTime t0 = loop.now();
  for (std::size_t k = 0; k < opt.n_files; ++k) {
    const std::size_t i = (start + k) % opt.n_files;
    auto st = co_await fs.stat(kFilePrefix + std::to_string(i));
    assert(st.has_value());
    (void)st;
    ++total;
  }
  max_seconds = std::max(max_seconds, to_seconds(loop.now() - t0));
  co_await barrier.arrive_and_wait();
}

}  // namespace

StatResult run_stat_benchmark(
    sim::EventLoop& loop, const std::vector<fsapi::FileSystemClient*>& clients,
    const StatOptions& options) {
  assert(!clients.empty());
  StatResult result;
  sim::Barrier barrier(loop, clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    loop.spawn(stat_client(loop, *clients[c], c, clients.size(), options,
                           barrier, result.max_node_seconds,
                           result.total_stats));
  }
  loop.run();
  return result;
}

}  // namespace imca::workload
