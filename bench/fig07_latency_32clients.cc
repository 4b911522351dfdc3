// Figure 7 — Read latency with 32 clients and varying MCD counts (§5.4).
//
// 32 clients run the latency benchmark on separate files, with barriers
// between phases and record sizes. Series: NoCache, IMCa with 1/2/4 MCDs,
// Lustre-4DS cold and warm. Paper headlines: 82% reduction at a 1-byte read
// with 4 MCDs; Lustre cold wins below 32-byte records, IMCa-4MCD wins past
// that; IMCa-4MCD catches Lustre warm around 64 KB records; 1 MCD shows
// growing capacity misses at 32 clients.
//
// Scaling: MCD memory is scaled with the file sizes (the paper's 6 GB
// daemons against 64 MB/client files become 256 MB daemons against
// 8 MB/client files) so the 1-MCD capacity pressure is preserved.
#include <cinttypes>
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

constexpr std::size_t kClients = 32;

LatencyOptions base_options() {
  LatencyOptions opt;
  opt.min_record = 1;
  opt.max_record = 64 * kKiB;
  opt.records_per_size = 128;  // 8 MB final file per client
  return opt;
}

struct GlusterOutcome {
  LatencySeries series;
  std::uint64_t mcd_evictions = 0;
  std::uint64_t mcd_misses = 0;
};

GlusterOutcome run_gluster(std::size_t n_mcds) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = kClients;
  cfg.n_mcds = n_mcds;
  cfg.mcd_memory = 256 * kMiB;  // scaled from 6 GB (see header comment)
  GlusterTestbed tb(cfg);
  GlusterOutcome out;
  out.series = workload::run_latency_benchmark(tb.loop(), clients_of(tb),
                                               base_options());
  if (n_mcds > 0) {
    const auto totals = tb.mcd_totals();
    out.mcd_evictions = totals.evictions;
    out.mcd_misses = totals.get_misses;
  }
  return out;
}

LatencySeries run_lustre(bool cold) {
  LustreTestbedConfig cfg;
  // llite's max_cached_mb (32 MB per OSC in Lustre 1.6), scaled 1/8 with the
  // file sizes: the reason the paper's Warm curve loses to IMCa once the
  // per-size sweep outgrows the client cache.
  cfg.client.cache_bytes = 4 * kMiB;
  cfg.n_clients = kClients;
  cfg.n_ds = 4;
  LustreTestbed tb(cfg);
  auto opt = base_options();
  if (cold) {
    opt.before_read_phase = [&tb](std::size_t) { tb.cold_all(); };
  }
  return workload::run_latency_benchmark(tb.loop(), clients_of(tb), opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Fig 7: read latency (us), 32 clients, varying MCDs; "
              "Lustre uses 4 DSs ==\n");
  cluster::print_calibration_banner(net::ipoib_rc());

  const auto nocache = run_gluster(0);
  const auto mcd1 = run_gluster(1);
  const auto mcd2 = run_gluster(2);
  const auto mcd4 = run_gluster(4);
  const auto lustre_cold = run_lustre(true);
  const auto lustre_warm = run_lustre(false);

  Table table({"record", "NoCache", "IMCa(1MCD)", "IMCa(2MCD)", "IMCa(4MCD)",
               "Lustre(Cold)", "Lustre(Warm)"});
  for (const auto& [r, nc] : nocache.series.read_ns) {
    table.add_row({Table::cell(r),
                   Table::cell(nc / 1e3),
                   Table::cell(mcd1.series.read_ns.at(r) / 1e3),
                   Table::cell(mcd2.series.read_ns.at(r) / 1e3),
                   Table::cell(mcd4.series.read_ns.at(r) / 1e3),
                   Table::cell(lustre_cold.read_ns.at(r) / 1e3),
                   Table::cell(lustre_warm.read_ns.at(r) / 1e3)});
  }
  print_table(table, args);

  std::printf("\n# paper: 82%% reduction at 1-byte reads, 4 MCDs vs NoCache;"
              " measured: %s\n",
              pct_reduction(nocache.series.read_ns.at(1),
                            mcd4.series.read_ns.at(1))
                  .c_str());

  // Crossover vs Lustre cold (paper: IMCa-4MCD wins beyond 32-byte records).
  for (std::uint64_t r = 1; r <= 64 * kKiB; r *= 2) {
    if (mcd4.series.read_ns.at(r) < lustre_cold.read_ns.at(r)) {
      std::printf("# paper: IMCa(4MCD) under Lustre(Cold) beyond 32B;"
                  " measured crossover at %" PRIu64 "B\n", r);
      break;
    }
  }
  // Crossover vs Lustre warm (paper: IMCa-4MCD catches warm near 64KB).
  bool caught = false;
  for (std::uint64_t r = 1; r <= 64 * kKiB; r *= 2) {
    if (mcd4.series.read_ns.at(r) < lustre_warm.read_ns.at(r)) {
      std::printf("# paper: IMCa(4MCD) under Lustre(Warm) at 64KB;"
                  " measured crossover at %" PRIu64 "B\n", r);
      caught = true;
      break;
    }
  }
  if (!caught) {
    std::printf("# paper: IMCa(4MCD) under Lustre(Warm) at 64KB; measured:"
                " no crossover up to 64KB\n");
  }
  std::printf("# MCD capacity pressure at 32 clients (evictions/misses):"
              " 1MCD=%" PRIu64 "/%" PRIu64 " 2MCD=%" PRIu64 "/%" PRIu64
              " 4MCD=%" PRIu64 "/%" PRIu64 "\n",
              mcd1.mcd_evictions, mcd1.mcd_misses, mcd2.mcd_evictions,
              mcd2.mcd_misses, mcd4.mcd_evictions, mcd4.mcd_misses);
  return 0;
}
