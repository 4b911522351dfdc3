// Figure 8 — Read latency vs client count, with 1 MCD and with 4 MCDs
// (paper §5.4, panels a-d: small and medium record sizes).
//
// The paper's observations: latency grows with the client count; with a
// single MCD the growth is steeper because the daemon saturates and — with
// the full 64 MB/client working set — starts taking capacity misses, which
// additional MCDs remove.
//
// MCD memory is scaled with file sizes as in fig07 (256 MB daemons vs
// 8 MB/client files, preserving the paper's working-set : cache ratio).
#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "workload/latency_bench.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using workload::LatencyOptions;
using workload::LatencySeries;

struct Outcome {
  LatencySeries series;
  std::uint64_t evictions = 0;
  std::uint64_t misses = 0;
};

Outcome run(std::size_t n_clients, std::size_t n_mcds) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.n_mcds = n_mcds;
  cfg.mcd_memory = 256 * kMiB;
  GlusterTestbed tb(cfg);
  LatencyOptions opt;
  opt.min_record = 1;
  opt.max_record = 64 * kKiB;
  opt.record_multiplier = 16;  // 1B, 16B, 256B, 4K, 64K
  opt.records_per_size = 128;
  Outcome out;
  out.series =
      workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
  if (n_mcds > 0) {
    const auto totals = tb.mcd_totals();
    out.evictions = totals.evictions;
    out.misses = totals.get_misses;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Fig 8: read latency (us) vs clients, 1 MCD and 4 MCDs ==\n");
  cluster::print_calibration_banner(net::ipoib_rc());

  const std::size_t client_counts[] = {1, 4, 16, 32};
  const std::uint64_t small_record = 256;
  const std::uint64_t medium_record = 64 * kKiB;

  Table table({"clients", "256B/1MCD", "256B/4MCD", "64KB/1MCD", "64KB/4MCD",
               "evict(1MCD)", "evict(4MCD)"});
  double lat1_small_1c = 0, lat1_small_32c = 0;
  std::uint64_t evict1_32 = 0, evict4_32 = 0;
  for (const auto clients : client_counts) {
    const auto one = run(clients, 1);
    const auto four = run(clients, 4);
    table.add_row({Table::cell(static_cast<std::uint64_t>(clients)),
                   Table::cell(one.series.read_ns.at(small_record) / 1e3),
                   Table::cell(four.series.read_ns.at(small_record) / 1e3),
                   Table::cell(one.series.read_ns.at(medium_record) / 1e3),
                   Table::cell(four.series.read_ns.at(medium_record) / 1e3),
                   Table::cell(one.evictions),
                   Table::cell(four.evictions)});
    if (clients == 1) lat1_small_1c = one.series.read_ns.at(small_record);
    if (clients == 32) {
      lat1_small_32c = one.series.read_ns.at(small_record);
      evict1_32 = one.evictions;
      evict4_32 = four.evictions;
    }
  }
  print_table(table, args);

  std::printf("\n# paper: read latency at 32 clients is higher than at one"
              " and rises with record size; measured 256B/1MCD:"
              " 1 client=%.1fus, 32 clients=%.1fus (x%.1f)\n",
              lat1_small_1c / 1e3, lat1_small_32c / 1e3,
              lat1_small_32c / lat1_small_1c);
  std::printf("# paper: capacity misses grow with clients on 1 MCD and are"
              " reduced by more MCDs; measured evictions at 32 clients:"
              " 1MCD=%" PRIu64 " 4MCD=%" PRIu64 "\n",
              evict1_32, evict4_32);
  return 0;
}
