// Figure 9 — IOzone read throughput with a varying number of MCDs (§5.5).
//
// Each IOzone thread (one per node) writes then re-reads its own file
// sequentially. For IMCa the libmemcache CRC32 placement is replaced by the
// static modulo (round-robin over the block index), so consecutive 2 KB
// blocks of a file spread across all daemons and the bank's NICs aggregate.
// Paper headlines at 8 threads: 868 MB/s with 4 MCDs — roughly 2x NoCache
// (417 MB/s) and Lustre-1DS cold (325 MB/s); more cache servers give more
// throughput.
//
// Scaling: 32 MB files instead of 1 GB, with the server page cache and MCD
// memory scaled by the same 1/32 (6 GB -> 192 MB server cache and MCDs),
// preserving the paper's working-set : memory ratios.
#include <cstdio>

#include "bench_util.h"
#include "common/buffer.h"
#include "workload/iozone.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using cluster::LustreTestbed;
using cluster::LustreTestbedConfig;
using workload::IozoneOptions;

constexpr std::uint64_t kFileBytes = 32 * kMiB;   // paper: 1 GB
constexpr std::uint64_t kRequest = 256 * kKiB;    // IOzone transfer size
constexpr std::uint64_t kServerCache = 192 * kMiB;  // paper: ~6 GB of 8 GB
constexpr std::uint64_t kMcdMemory = 192 * kMiB;    // paper: 6 GB

IozoneOptions options() {
  IozoneOptions opt;
  opt.file_bytes = kFileBytes;
  opt.request_size = kRequest;
  return opt;
}

// Kernel events processed across every testbed in the run — the perf
// trajectory's events/sec denominator (--json, EXPERIMENTS.md).
std::uint64_t g_events = 0;

// Buffer-layer copy ledger for one run (delta across the whole iozone
// write+read pass), reported in the JSON footer for the headline config.
struct CopyLedger {
  std::uint64_t bytes_copied = 0;
  std::uint64_t gather_calls = 0;
  std::uint64_t bytes_read = 0;
};

double run_gluster(std::size_t threads, std::size_t n_mcds,
                   core::HashScheme hash, CopyLedger* ledger = nullptr,
                   std::size_t n_bricks = 1,
                   workload::IozoneResult* full = nullptr) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = threads;
  cfg.n_mcds = n_mcds;
  cfg.n_bricks = n_bricks;  // distribute groups (1 replica each)
  cfg.imca.hash = hash;
  cfg.imca.block_size = 2 * kKiB;  // the paper's 2 KB IMCa block
  cfg.mcd_memory = kMcdMemory;
  cfg.server.page_cache_bytes = kServerCache;
  GlusterTestbed tb(cfg);
  const auto before = buffer_stats();
  const auto res = workload::run_iozone(tb.loop(), clients_of(tb), options());
  if (ledger) {
    ledger->bytes_copied = buffer_stats().bytes_copied - before.bytes_copied;
    ledger->gather_calls = buffer_stats().gather_calls - before.gather_calls;
    ledger->bytes_read = threads * kFileBytes;  // the re-read phase volume
  }
  g_events += tb.loop().events_processed();
  if (full) *full = res;
  return res.aggregate_read_mbps;
}

// --bricks: the brick-scaling sweep. 8 threads over G in {1, 2, 4}
// distribute groups; the 256 MB working set overflows one brick's 192 MB
// page cache but fits once the namespace spreads, so NoCache throughput
// (which the ring actually serves) must scale monotonically. Throughputs
// are ratios of simulated time and thus deterministic — the monotonicity
// check is a real gate, not a flaky perf assertion. Returns false (exit 1)
// if scaling regressed.
bool run_brick_sweep(const imca::bench::BenchArgs& args,
                     std::vector<BenchRecord>* records) {
  constexpr std::size_t kThreads = 8;
  const std::size_t groups[] = {1, 2, 4};
  std::printf("\n== Fig 9 brick sweep: %zu threads, G distribute groups ==\n",
              kThreads);
  Table table({"groups", "NoCache-write", "NoCache-read", "IMCa(4MCD)-read"});
  double nocache_read[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t g = groups[i];
    const BenchTimer timer;
    const std::uint64_t events0 = g_events;
    workload::IozoneResult nocache;
    run_gluster(kThreads, 0, core::HashScheme::kModulo, nullptr, g, &nocache);
    const double imca_read =
        run_gluster(kThreads, 4, core::HashScheme::kModulo, nullptr, g);
    nocache_read[i] = nocache.aggregate_read_mbps;
    table.add_row({Table::cell(static_cast<std::uint64_t>(g)),
                   Table::cell(nocache.aggregate_write_mbps, 1),
                   Table::cell(nocache.aggregate_read_mbps, 1),
                   Table::cell(imca_read, 1)});
    records->push_back(timer.finish(
        "fig09/bricks/g=" + std::to_string(g), g_events - events0));
  }
  print_table(table, args);
  // Monotone 1 -> 4: each doubling may not lose throughput (2% tolerance
  // for ring-placement skew), and 4 groups must strictly beat 1.
  bool ok = nocache_read[2] > nocache_read[0];
  for (int i = 1; i < 3; ++i) {
    if (nocache_read[i] < nocache_read[i - 1] * 0.98) ok = false;
  }
  std::printf("# brick scaling (NoCache read): 1g=%.0f 2g=%.0f 4g=%.0f"
              " MB/s -> %s\n",
              nocache_read[0], nocache_read[1], nocache_read[2],
              ok ? "monotone" : "REGRESSED");
  return ok;
}

// --writeback: the durable write-back ablation (DESIGN.md §5j). Same
// 8-thread / 4-MCD deployment as the headline row; writes either go through
// to the brick (baseline) or are absorbed as K=2 dirty replicas in the MCD
// bank and flushed to the brick in the background. Absorbing costs the wire
// the payload twice, so this is not a throughput win on a fast brick — the
// rows exist to version the trade-off. The GATE is the durability ledger,
// which is deterministic: every acked byte drains (iozone's close barriers
// force it), nothing is lost, degraded, or double-applied.
bool run_writeback_ablation(const imca::bench::BenchArgs& args,
                            std::vector<BenchRecord>* records) {
  constexpr std::size_t kThreads = 8;
  std::printf("\n== Fig 9 write-back ablation: %zu threads, 4 MCDs,"
              " K=2 dirty replicas ==\n",
              kThreads);
  Table table({"mode", "write-MBps", "read-MBps", "absorbed", "flushed",
               "lost", "degraded"});
  bool ok = true;
  for (int wb = 0; wb < 2; ++wb) {
    const BenchTimer timer;
    const std::uint64_t events0 = g_events;
    GlusterTestbedConfig cfg;
    cfg.n_clients = kThreads;
    cfg.n_mcds = 4;
    cfg.imca.hash = core::HashScheme::kModulo;
    cfg.imca.block_size = 2 * kKiB;
    cfg.mcd_memory = kMcdMemory;
    cfg.server.page_cache_bytes = kServerCache;
    if (wb != 0) {
      cfg.imca.writeback = true;
      cfg.imca.wb_replicas = 2;
      cfg.imca.wb_quorum = 2;
      cfg.imca.mcd_op_timeout = 2 * kMilli;
    }
    GlusterTestbed tb(cfg);
    const auto res =
        workload::run_iozone(tb.loop(), clients_of(tb), options());
    g_events += tb.loop().events_processed();
    const auto wbs = tb.writeback_totals();
    table.add_row({std::string(wb != 0 ? "write-back" : "write-through"),
                   Table::cell(res.aggregate_write_mbps, 1),
                   Table::cell(res.aggregate_read_mbps, 1),
                   Table::cell(wbs.absorbed), Table::cell(wbs.flushed_extents),
                   Table::cell(wbs.lost_extents),
                   Table::cell(wbs.degraded_writes)});
    if (wb != 0) {
      if (wbs.absorbed == 0) ok = false;  // the ablation never engaged
      // degraded_writes stays in the table but not the gate: under memory
      // pressure the bank refuses dirty stores (dirty items are pinned, so
      // an overfull daemon cannot evict its way clear) and the write rides
      // the designed ladder down to write-through. Loss is the violation.
      if (wbs.lost_extents != 0) ok = false;
      for (std::size_t i = 0; i < tb.n_clients(); ++i) {
        if (tb.cmcache(i).writeback()->dirty_bytes() != 0) ok = false;
      }
    }
    if (tb.server_totals().duplicate_applies != 0) ok = false;
    records->push_back(timer.finish(
        std::string("fig09/writeback/") + (wb != 0 ? "wb" : "wt"),
        g_events - events0));
  }
  print_table(table, args);
  std::printf("# write-back ledger: %s\n",
              ok ? "drained, zero loss, exactly-once"
                 : "VIOLATED (loss, leftover dirty bytes, or dup applies)");
  return ok;
}

double run_lustre(std::size_t threads) {
  LustreTestbedConfig cfg;
  cfg.n_clients = threads;
  cfg.n_ds = 1;  // the paper compares against Lustre-1DS (Cold)
  cfg.ds.page_cache_bytes = kServerCache;
  LustreTestbed tb(cfg);
  auto opt = options();
  // Cold client caches for the read phase (unmount/remount, paper §5.3).
  opt.before_read_phase = [&tb](std::size_t) { tb.cold_all(); };
  const auto r = workload::run_iozone(tb.loop(), clients_of(tb), opt);
  g_events += tb.loop().events_processed();
  return r.aggregate_read_mbps;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv | kJson | kBricks | kWriteback);
  const BenchTimer bench_timer;
  std::printf("== Fig 9: IOzone read throughput (MB/s); %llu MB files, "
              "modulo hash, 2K IMCa blocks (paper: 1 GB files) ==\n",
              static_cast<unsigned long long>(kFileBytes / kMiB));
  cluster::print_calibration_banner(net::ipoib_rc());

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  Table table({"threads", "NoCache", "IMCa(1MCD)", "IMCa(2MCD)", "IMCa(4MCD)",
               "Lustre-1DS(Cold)"});
  double nocache8 = 0, mcd4_8 = 0, lustre8 = 0;
  CopyLedger ledger8x4;
  for (const auto threads : thread_counts) {
    const double nocache =
        run_gluster(threads, 0, core::HashScheme::kModulo);
    const double m1 = run_gluster(threads, 1, core::HashScheme::kModulo);
    const double m2 = run_gluster(threads, 2, core::HashScheme::kModulo);
    const double m4 = run_gluster(threads, 4, core::HashScheme::kModulo,
                                  threads == 8 ? &ledger8x4 : nullptr);
    const double lustre = run_lustre(threads);
    table.add_row({Table::cell(static_cast<std::uint64_t>(threads)),
                   Table::cell(nocache, 1), Table::cell(m1, 1),
                   Table::cell(m2, 1), Table::cell(m4, 1),
                   Table::cell(lustre, 1)});
    if (threads == 8) {
      nocache8 = nocache;
      mcd4_8 = m4;
      lustre8 = lustre;
    }
  }
  print_table(table, args);

  std::printf("\n# paper at 8 threads: 4MCD=868 MB/s ~ 2.1x NoCache (417)"
              " and 2.7x Lustre-1DS cold (325)\n");
  std::printf("# measured at 8 threads: 4MCD=%.0f MB/s = %.1fx NoCache (%.0f)"
              " and %.1fx Lustre (%.0f)\n",
              mcd4_8, mcd4_8 / nocache8, nocache8, mcd4_8 / lustre8, lustre8);

  // Ablation (DESIGN.md §5): the paper swapped CRC32 for modulo here; show
  // what CRC32 placement would have delivered at 8 threads / 4 MCDs.
  const double crc = run_gluster(8, 4, core::HashScheme::kCrc32);
  const double consistent = run_gluster(8, 4, core::HashScheme::kConsistent);
  std::printf("# hash ablation at 8 threads / 4 MCDs: modulo=%.0f MB/s"
              " crc32=%.0f MB/s consistent=%.0f MB/s\n",
              mcd4_8, crc, consistent);

  // Copy ledger for the headline run (8 threads, 4 MCDs): how many times
  // the buffer layer moved each byte the clients read back. One JSON line
  // so dashboards can scrape it alongside the throughput table.
  std::printf("{\"copy_ledger\": {\"config\": \"8threads_4mcds\","
              " \"bytes_read\": %llu, \"bytes_copied\": %llu,"
              " \"gather_calls\": %llu,"
              " \"bytes_copied_per_byte_read\": %.3f}}\n",
              static_cast<unsigned long long>(ledger8x4.bytes_read),
              static_cast<unsigned long long>(ledger8x4.bytes_copied),
              static_cast<unsigned long long>(ledger8x4.gather_calls),
              ledger8x4.bytes_read
                  ? static_cast<double>(ledger8x4.bytes_copied) /
                        static_cast<double>(ledger8x4.bytes_read)
                  : 0.0);
  std::vector<BenchRecord> records;
  bool bricks_ok = true;
  if (args.bricks) {
    bricks_ok = run_brick_sweep(args, &records);
  }
  bool writeback_ok = true;
  if (args.writeback) {
    writeback_ok = run_writeback_ablation(args, &records);
  }
  records.push_back(bench_timer.finish("fig09/iozone_throughput", g_events));
  if (!write_bench_json(args.json_path, records)) {
    return 1;
  }
  return (bricks_ok && writeback_ok) ? 0 : 1;
}
