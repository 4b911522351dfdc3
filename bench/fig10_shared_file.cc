// Figure 10 — Read latency to a shared file (paper §5.6).
//
// The latency benchmark modified for read/write sharing: only the root node
// writes the file; after a barrier every node reads it, with barriers
// between record sizes. One MCD. Paper headlines: 45% reduction vs NoCache
// at 32 nodes, benefit grows with node count, and with a single MCD the
// latency still grows linearly in the node count (every client drains the
// same daemon in the same order).
#include <cstdio>

#include "bench_util.h"
#include "workload/latency_bench.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using cluster::LustreTestbed;
using cluster::LustreTestbedConfig;
using workload::LatencyOptions;

constexpr std::uint64_t kRecord = 1 * kKiB;

LatencyOptions options() {
  LatencyOptions opt;
  opt.min_record = kRecord;
  opt.max_record = kRecord;
  opt.records_per_size = 256;
  opt.shared_file = true;
  opt.measure_writes = false;
  return opt;
}

double run_gluster(std::size_t n_clients, std::size_t n_mcds) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.n_mcds = n_mcds;
  GlusterTestbed tb(cfg);
  return workload::run_latency_benchmark(tb.loop(), tb.clients(), options())
      .read_ns.at(kRecord);
}

double run_lustre(std::size_t n_clients) {
  LustreTestbedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.n_ds = 1;  // Lustre-1DS (Cold), as in the paper
  LustreTestbed tb(cfg);
  auto opt = options();
  opt.before_read_phase = [&tb](std::size_t) { tb.cold_all(); };
  return workload::run_latency_benchmark(tb.loop(), tb.clients(), opt)
      .read_ns.at(kRecord);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Fig 10: read latency (us) to a shared file; root writes,"
              " all nodes read; 1 MCD; %llu-byte records ==\n",
              static_cast<unsigned long long>(kRecord));
  cluster::print_calibration_banner(net::ipoib_rc());

  const std::size_t node_counts[] = {2, 4, 8, 16, 32};
  Table table({"nodes", "NoCache", "IMCa(1MCD)", "Lustre-1DS(Cold)",
               "reduction"});
  double nocache32 = 0, imca32 = 0;
  for (const auto nodes : node_counts) {
    const double nocache = run_gluster(nodes, 0);
    const double imca = run_gluster(nodes, 1);
    const double lustre = run_lustre(nodes);
    table.add_row({Table::cell(static_cast<std::uint64_t>(nodes)),
                   Table::cell(nocache / 1e3), Table::cell(imca / 1e3),
                   Table::cell(lustre / 1e3),
                   pct_reduction(nocache, imca)});
    if (nodes == 32) {
      nocache32 = nocache;
      imca32 = imca;
    }
  }
  print_table(table, args);

  std::printf("\n# paper: 45%% reduction vs NoCache at 32 nodes, and the"
              " benefit grows with node count; measured at 32: %s\n",
              pct_reduction(nocache32, imca32).c_str());
  return 0;
}
