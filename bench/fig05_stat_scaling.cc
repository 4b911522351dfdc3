// Figure 5 — Stat latency with multiple clients (paper §5.2).
//
// Workload: one client creates the file set (untimed); then every client
// stats every file, and the slowest node's completion time is reported.
// Series: GlusterFS with no cache, GlusterFS + IMCa with 1/2/4/6 MCDs, and
// Lustre with 4 data servers. The paper's headline numbers at 64 clients:
// 82% reduction with 1 MCD vs NoCache, 86% lower than Lustre with 6 MCDs,
// diminishing returns past 2 MCDs (MCD miss rate reaches zero).
//
// Scaling: 8192 files instead of 262144 (the per-op shape is unchanged; the
// event count is not). --scale=N multiplies the file count.
#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "workload/stat_bench.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using cluster::LustreTestbed;
using cluster::LustreTestbedConfig;

// Kernel events processed across every testbed in the run — the perf
// trajectory's events/sec denominator (--json, EXPERIMENTS.md).
std::uint64_t g_events = 0;

double run_gluster(std::size_t n_clients, std::size_t n_mcds,
                   std::size_t n_files, std::uint64_t& misses) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.n_mcds = n_mcds;
  GlusterTestbed tb(cfg);
  workload::StatOptions opt;
  opt.n_files = n_files;
  const auto r = workload::run_stat_benchmark(tb.loop(), clients_of(tb), opt);
  misses = n_mcds > 0 ? tb.mcd_totals().get_misses : 0;
  g_events += tb.loop().events_processed();
  return r.max_node_seconds;
}

double run_lustre(std::size_t n_clients, std::size_t n_ds,
                  std::size_t n_files) {
  LustreTestbedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.n_ds = n_ds;
  LustreTestbed tb(cfg);
  workload::StatOptions opt;
  opt.n_files = n_files;
  const double s = workload::run_stat_benchmark(tb.loop(), clients_of(tb),
                                                opt).max_node_seconds;
  g_events += tb.loop().events_processed();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv | kScale | kJson);
  const BenchTimer bench_timer;
  const auto n_files =
      static_cast<std::size_t>(8192 * args.scale);

  std::printf("== Fig 5: stat time (s) vs clients; %zu files "
              "(paper: 262144 files, 64 nodes) ==\n", n_files);
  cluster::print_calibration_banner(net::ipoib_rc());

  const std::size_t client_counts[] = {1, 4, 16, 64};
  const std::size_t mcd_counts[] = {1, 2, 4, 6};

  Table table({"clients", "NoCache", "MCD(1)", "MCD(2)", "MCD(4)", "MCD(6)",
               "Lustre-4DS"});
  double nocache64 = 0, mcd1_64 = 0, mcd4_64 = 0, mcd6_64 = 0, lustre64 = 0;
  std::uint64_t misses_by_mcds[5] = {};

  for (const auto clients : client_counts) {
    std::vector<std::string> row;
    row.push_back(Table::cell(static_cast<std::uint64_t>(clients)));
    std::uint64_t misses = 0;
    const double nocache = run_gluster(clients, 0, n_files, misses);
    row.push_back(Table::cell(nocache, 3));
    double mcd_t[4] = {};
    for (std::size_t m = 0; m < 4; ++m) {
      mcd_t[m] = run_gluster(clients, mcd_counts[m], n_files, misses);
      row.push_back(Table::cell(mcd_t[m], 3));
      if (clients == 64) misses_by_mcds[m + 1] = misses;
    }
    const double lustre = run_lustre(clients, 4, n_files);
    row.push_back(Table::cell(lustre, 3));
    table.add_row(std::move(row));
    if (clients == 64) {
      nocache64 = nocache;
      mcd1_64 = mcd_t[0];
      mcd4_64 = mcd_t[2];
      mcd6_64 = mcd_t[3];
      lustre64 = lustre;
    }
  }
  print_table(table, args);

  std::printf("\n# paper: 82%% reduction, 1 MCD vs NoCache at 64 clients;"
              " measured: %s\n",
              pct_reduction(nocache64, mcd1_64).c_str());
  std::printf("# paper: 86%% below Lustre-4DS with 6 MCDs at 64 clients;"
              " measured: %s\n",
              pct_reduction(lustre64, mcd6_64).c_str());
  std::printf("# paper: diminishing returns beyond 2 MCDs (23%% from 4->6);"
              " measured 4->6: %s\n",
              pct_reduction(mcd4_64, mcd6_64).c_str());
  std::printf("# MCD get_misses at 64 clients by bank width:");
  for (std::size_t m = 0; m < 4; ++m) {
    std::printf(" %zuMCD=%" PRIu64, mcd_counts[m], misses_by_mcds[m + 1]);
  }
  std::printf("\n");
  if (!write_bench_json(args.json_path,
                        {bench_timer.finish("fig05/stat_scaling",
                                            g_events)})) {
    return 1;
  }
  return 0;
}
