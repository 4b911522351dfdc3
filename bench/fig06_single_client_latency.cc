// Figure 6 — Read and write latency with one client and 1 MCD (paper §5.3).
//
// (a)/(b): read latency vs record size for IMCa block sizes 256 B / 2 KB /
// 8 KB against NoCache and Lustre (1 and 4 data servers, warm and cold
// client cache). Paper headlines at a 1-byte record: 45% reduction with a
// 2 KB block, 31% with 8 KB, 59% with 256 B; NoCache wins past ~8 KB records
// against the 256 B block; Lustre warm is lowest overall, Lustre cold sits
// near IMCa.
//
// (c): write latency with a 2 KB block. IMCa's synchronous MCD update (a
// server-side read-back in the write path) makes writes slower than
// NoCache; offloading to the update thread restores parity.
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
using workload::LatencySeries;

LatencyOptions base_options() {
  LatencyOptions opt;
  opt.min_record = 1;
  opt.max_record = 256 * kKiB;
  opt.records_per_size = 128;
  return opt;
}

LatencySeries run_gluster(std::size_t n_mcds, std::uint64_t block_size,
                          bool threaded) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 1;
  cfg.n_mcds = n_mcds;
  cfg.imca.block_size = block_size;
  cfg.imca.threaded_updates = threaded;
  GlusterTestbed tb(cfg);
  return workload::run_latency_benchmark(tb.loop(), tb.clients(),
                                         base_options());
}

LatencySeries run_lustre(std::size_t n_ds, bool cold) {
  LustreTestbedConfig cfg;
  // llite's max_cached_mb (32 MB per OSC in Lustre 1.6), scaled 1/8 with the
  // file sizes: the reason the paper's Warm curve loses to IMCa once the
  // per-size sweep outgrows the client cache.
  cfg.client.cache_bytes = 4 * kMiB;
  cfg.n_clients = 1;
  cfg.n_ds = n_ds;
  LustreTestbed tb(cfg);
  auto opt = base_options();
  if (cold) {
    // Paper §5.3: after the write phase the client file system is unmounted
    // and remounted, evicting the client cache.
    opt.before_read_phase = [&tb](std::size_t) { tb.cold_all(); };
  }
  return workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Fig 6: single-client latency, 1 MCD "
              "(128 records/size; paper: 1024) ==\n");
  cluster::print_calibration_banner(net::ipoib_rc());

  const auto nocache = run_gluster(0, 2 * kKiB, false);
  const auto imca256 = run_gluster(1, 256, false);
  const auto imca2k = run_gluster(1, 2 * kKiB, false);
  const auto imca8k = run_gluster(1, 8 * kKiB, false);
  const auto lustre1_cold = run_lustre(1, true);
  const auto lustre4_cold = run_lustre(4, true);
  const auto lustre4_warm = run_lustre(4, false);
  const auto imca2k_threaded = run_gluster(1, 2 * kKiB, true);

  std::printf("\n-- Fig 6(a,b): Read latency (us) vs record size --\n");
  Table read_table({"record", "NoCache", "IMCa-256", "IMCa-2K", "IMCa-8K",
                    "Lustre-1DS(Cold)", "Lustre-4DS(Cold)",
                    "Lustre-4DS(Warm)"});
  for (const auto& [r, nc] : nocache.read_ns) {
    read_table.add_row({Table::cell(r),
                        Table::cell(nc / 1e3),
                        Table::cell(imca256.read_ns.at(r) / 1e3),
                        Table::cell(imca2k.read_ns.at(r) / 1e3),
                        Table::cell(imca8k.read_ns.at(r) / 1e3),
                        Table::cell(lustre1_cold.read_ns.at(r) / 1e3),
                        Table::cell(lustre4_cold.read_ns.at(r) / 1e3),
                        Table::cell(lustre4_warm.read_ns.at(r) / 1e3)});
  }
  print_table(read_table, args);

  const double nc1 = nocache.read_ns.at(1);
  std::printf("\n# paper: 1-byte read reduction vs NoCache: 59%% (256B block),"
              " 45%% (2K), 31%% (8K)\n");
  std::printf("# measured:                                %s (256B block),"
              " %s (2K), %s (8K)\n",
              pct_reduction(nc1, imca256.read_ns.at(1)).c_str(),
              pct_reduction(nc1, imca2k.read_ns.at(1)).c_str(),
              pct_reduction(nc1, imca8k.read_ns.at(1)).c_str());
  // Crossover: beyond ~8K records the 256B block loses to NoCache.
  for (std::uint64_t r = 1; r <= 256 * kKiB; r *= 2) {
    if (imca256.read_ns.at(r) > nocache.read_ns.at(r)) {
      std::printf("# paper: NoCache beats IMCa-256 past 8K records; measured"
                  " crossover at %llu bytes\n",
                  static_cast<unsigned long long>(r));
      break;
    }
  }

  std::printf("\n-- Fig 6(c): Write latency (us), IMCa block 2K --\n");
  Table write_table(
      {"record", "NoCache", "IMCa-2K(sync)", "IMCa-2K(threaded)"});
  for (const auto& [r, nc] : nocache.write_ns) {
    write_table.add_row({Table::cell(r),
                         Table::cell(nc / 1e3),
                         Table::cell(imca2k.write_ns.at(r) / 1e3),
                         Table::cell(imca2k_threaded.write_ns.at(r) / 1e3)});
  }
  print_table(write_table, args);
  const std::uint64_t wr = 2 * kKiB;
  std::printf("\n# paper: sync IMCa write is slower than NoCache; the update"
              " thread restores parity.\n");
  std::printf("# measured at 2K records: NoCache=%.1fus sync=%.1fus"
              " threaded=%.1fus\n",
              nocache.write_ns.at(wr) / 1e3, imca2k.write_ns.at(wr) / 1e3,
              imca2k_threaded.write_ns.at(wr) / 1e3);
  return 0;
}
