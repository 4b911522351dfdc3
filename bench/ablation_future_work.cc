// Ablations for the paper's §7 future-work directions, implemented in this
// repository:
//
//  (1) RDMA to the cache bank — "how network mechanisms like RDMA in
//      InfiniBand can help reduce the overhead of the cache bank": rerun the
//      Fig 7 read-latency point and the Fig 5 stat point with the MCD path
//      on native verbs instead of TCP over IPoIB.
//  (2) Hash schemes — "investigate different hashing algorithms": CRC32 vs
//      modulo vs consistent hashing, including the remap cost when a daemon
//      is removed (what consistent hashing exists to fix).
//  (3) Coherent client cache vs the cache bank — "study the relative
//      scalability of a coherent client side cache and a bank of
//      intermediate cache nodes": sweep node count under read/write sharing
//      (one rotating writer per round) for Lustre's coherent client caches
//      and for IMCa's bank.
//  (4) Bank-in-Lustre — "how the set of cache servers may be integrated
//      into a file system such as Lustre": plain Lustre vs CachedLustreClient
//      on a shared-read workload.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "lustre/cached_client.h"
#include "workload/latency_bench.h"
#include "workload/stat_bench.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using cluster::LustreTestbed;
using cluster::LustreTestbedConfig;

// --- (1) RDMA cache path ---

void rdma_ablation(const BenchArgs& args) {
  std::printf("\n-- (1) cache-bank transport: TCP/IPoIB vs native RDMA --\n");
  auto read_1b = [](bool rdma) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 32;
    cfg.n_mcds = 4;
    cfg.imca.rdma_cache_path = rdma;
    GlusterTestbed tb(cfg);
    workload::LatencyOptions opt;
    opt.max_record = 4 * kKiB;
    opt.records_per_size = 64;
    opt.record_multiplier = 64;  // 1B and 64B and 4K
    return workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
  };
  auto stat_64c = [](bool rdma) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 64;
    cfg.n_mcds = 4;
    cfg.imca.rdma_cache_path = rdma;
    GlusterTestbed tb(cfg);
    workload::StatOptions opt;
    opt.n_files = 4096;
    return workload::run_stat_benchmark(tb.loop(), tb.clients(), opt)
        .max_node_seconds;
  };

  // Uncontended probe: one client, one daemon, a cached 1-byte read.
  auto uncontended_1b = [](bool rdma) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 1;
    cfg.n_mcds = 1;
    cfg.imca.rdma_cache_path = rdma;
    GlusterTestbed tb(cfg);
    SimDuration lat = 0;
    tb.run([](GlusterTestbed& t, SimDuration& out_lat) -> sim::Task<void> {
      auto f = co_await t.client(0).create("/probe");
      (void)co_await t.client(0).write(*f, 0, to_buffer("xy"));
      const SimTime t0 = t.loop().now();
      (void)co_await t.client(0).read(*f, 0, 1);
      out_lat = t.loop().now() - t0;
    }(tb, lat));
    return static_cast<double>(lat);
  };

  const double tcp_1 = uncontended_1b(false);
  const double rdma_1 = uncontended_1b(true);
  const auto tcp = read_1b(false);
  const auto rdma = read_1b(true);
  const double tcp_stat = stat_64c(false);
  const double rdma_stat = stat_64c(true);

  Table t({"metric", "TCP/IPoIB", "RDMA", "reduction"});
  t.add_row({"1B cached read, 1 client/1MCD (us)", Table::cell(tcp_1 / 1e3),
             Table::cell(rdma_1 / 1e3), pct_reduction(tcp_1, rdma_1)});
  t.add_row({"1B read, 32 clients/4MCD (us)",
             Table::cell(tcp.read_ns.at(1) / 1e3),
             Table::cell(rdma.read_ns.at(1) / 1e3),
             pct_reduction(tcp.read_ns.at(1), rdma.read_ns.at(1))});
  t.add_row({"4K read, 32 clients/4MCD (us)",
             Table::cell(tcp.read_ns.at(4 * kKiB) / 1e3),
             Table::cell(rdma.read_ns.at(4 * kKiB) / 1e3),
             pct_reduction(tcp.read_ns.at(4 * kKiB),
                           rdma.read_ns.at(4 * kKiB))});
  t.add_row({"stat storm, 64 clients/4MCD (s)", Table::cell(tcp_stat, 3),
             Table::cell(rdma_stat, 3), pct_reduction(tcp_stat, rdma_stat)});
  print_table(t, args);
  std::printf("# RDMA halves the uncontended round trip; under saturation"
              " the single-threaded daemon, not the transport, bounds"
              " latency — the case for a verbs-native daemon design.\n");
}

// --- (2) hashing schemes: balance and remap cost ---

void hash_ablation(const BenchArgs& args) {
  std::printf("\n-- (2) key->daemon hashing: balance and daemon-loss remap --\n");
  const std::size_t kDaemons = 6;
  const int kKeys = 20000;
  mcclient::Crc32Selector crc;
  mcclient::ModuloSelector modulo;
  mcclient::ConsistentSelector consistent(16);

  Table t({"scheme", "max/mean load (6 daemons)", "keys remapped 6->5"});
  const auto row = [&](const char* name, const mcclient::ServerSelector& sel,
                       bool hint) {
    std::vector<int> load(kDaemons, 0);
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key =
          "/vol/data/file" + std::to_string(i % 500) + ":" +
          std::to_string((i / 500) * 2048);
      const auto h = hint ? std::optional<std::uint64_t>{
                                static_cast<std::uint64_t>(i / 500)}
                          : std::nullopt;
      const auto s6 = sel.pick(key, h, kDaemons);
      ++load[s6];
      moved += s6 != sel.pick(key, h, kDaemons - 1);
    }
    const double mean = static_cast<double>(kKeys) / kDaemons;
    const int mx = *std::max_element(load.begin(), load.end());
    t.add_row({name, Table::cell(mx / mean),
               Table::cell(100.0 * moved / kKeys, 1) + "%"});
  };
  row("crc32", crc, false);
  row("modulo", modulo, true);
  row("consistent", consistent, false);
  print_table(t, args);
}

// --- (3) coherent client cache vs the bank, under r/w sharing ---

// Per round: one rotating writer updates the shared file's first 4K, then
// every node reads it. Returns mean read latency (ns).
template <typename MakeClients>
double sharing_latency(sim::EventLoop& loop,
                       std::vector<fsapi::FileSystemClient*> clients,
                       std::size_t rounds, MakeClients&& /*tag*/) {
  MeanAccum reads;
  loop.spawn([](sim::EventLoop& l, std::vector<fsapi::FileSystemClient*> cs,
                std::size_t n_rounds, MeanAccum& acc) -> sim::Task<void> {
    auto f0 = co_await cs[0]->create("/abl/shared");
    std::vector<fsapi::OpenFile> fds(cs.size());
    fds[0] = *f0;
    (void)co_await cs[0]->write(fds[0], 0, Buffer::zeros(4 * kKiB));
    for (std::size_t c = 1; c < cs.size(); ++c) {
      fds[c] = *(co_await cs[c]->open("/abl/shared"));
    }
    for (std::size_t round = 0; round < n_rounds; ++round) {
      const std::size_t writer = round % cs.size();
      (void)co_await cs[writer]->write(
          fds[writer], 0,
          Buffer::take(std::vector<std::byte>(
              4 * kKiB, static_cast<std::byte>(round & 0xFF))));
      for (std::size_t c = 0; c < cs.size(); ++c) {
        const SimTime t0 = l.now();
        auto r = co_await cs[c]->read(fds[c], 0, 4 * kKiB);
        (void)r;
        acc.add(static_cast<double>(l.now() - t0));
      }
    }
  }(loop, std::move(clients), rounds, reads));
  loop.run();
  return reads.mean();
}

void scalability_ablation(const BenchArgs& args) {
  std::printf("\n-- (3) coherent client caches (Lustre) vs cache bank (IMCa),"
              " r/w sharing, rotating writer --\n");
  Table t({"nodes", "Lustre coherent-cache (us)", "IMCa 2-MCD bank (us)",
           "MDS revocations"});
  for (const std::size_t nodes : {2u, 8u, 16u, 32u}) {
    LustreTestbedConfig lcfg;
    lcfg.n_clients = nodes;
    lcfg.n_ds = 2;
    LustreTestbed ltb(lcfg);
    const double lustre =
        sharing_latency(ltb.loop(), ltb.clients(), 16, 0);
    const auto revocations = ltb.mds().revocations();

    GlusterTestbedConfig gcfg;
    gcfg.n_clients = nodes;
    gcfg.n_mcds = 2;
    GlusterTestbed gtb(gcfg);
    const double imca =
        sharing_latency(gtb.loop(), gtb.clients(), 16, 0);

    t.add_row({Table::cell(static_cast<std::uint64_t>(nodes)),
               Table::cell(lustre / 1e3), Table::cell(imca / 1e3),
               Table::cell(static_cast<std::uint64_t>(revocations))});
  }
  print_table(t, args);
  std::printf("# the coherent cache pays one revocation storm per write"
              " (growing with nodes); the lockless bank pays a flat"
              " republish.\n");
}

// --- (4) the bank integrated into Lustre ---

void lustre_bank_ablation(const BenchArgs& args) {
  std::printf("\n-- (4) cache bank integrated into Lustre"
              " (CachedLustreClient) --\n");
  const std::size_t kNodes = 16;

  auto run = [&](bool with_bank) {
    LustreTestbedConfig cfg;
    cfg.n_clients = kNodes;
    cfg.n_ds = 1;
    LustreTestbed tb(cfg);
    // Cold coherent caches: the scenario where the bank should help most.
    for (std::size_t c = 0; c < kNodes; ++c) tb.client(c).cold();

    std::vector<net::NodeId> mcd_nodes;
    std::vector<std::unique_ptr<memcache::McServer>> mcds;
    std::vector<std::unique_ptr<lustre::CachedLustreClient>> cached;
    std::vector<fsapi::FileSystemClient*> clients;
    if (with_bank) {
      // Two MCD nodes appended to the same fabric.
      for (int i = 0; i < 2; ++i) {
        // NOTE: testbed fabrics allow adding nodes after construction.
        auto& node = tb.fabric().add_node("mcd" + std::to_string(i));
        mcd_nodes.push_back(node.id());
        mcds.push_back(std::make_unique<memcache::McServer>(
            tb.rpc(), node.id(), 1 * kGiB));
        mcds.back()->start();
      }
      for (std::size_t c = 0; c < kNodes; ++c) {
        cached.push_back(std::make_unique<lustre::CachedLustreClient>(
            tb.client(c),
            std::make_unique<mcclient::McClient>(
                tb.rpc(), tb.client_node(c), mcd_nodes,
                std::make_unique<mcclient::Crc32Selector>())));
        clients.push_back(cached.back().get());
      }
    } else {
      clients = tb.clients();
    }

    // Shared-read workload against a disk-pressured DS: writer 0 seeds the
    // file, the DS page cache is dropped, then every reader streams the file
    // CONCURRENTLY — the load profile where an extra caching tier should
    // matter (paper §3 "Server load problems").
    MeanAccum reads;
    tb.loop().spawn([](sim::EventLoop& l, LustreTestbed& lt,
                       std::vector<fsapi::FileSystemClient*> cs,
                       MeanAccum& acc) -> sim::Task<void> {
      auto f0 = co_await cs[0]->create("/bank/data");
      (void)co_await cs[0]->write(*f0, 0, Buffer::zeros(64 * kKiB));
      lt.ds(0).device().drop_caches();
      std::vector<sim::Task<void>> readers;
      for (std::size_t c = 1; c < cs.size(); ++c) {
        readers.push_back([](sim::EventLoop& ll, fsapi::FileSystemClient& fs,
                             MeanAccum& a) -> sim::Task<void> {
          auto f = co_await fs.open("/bank/data");
          for (int pass = 0; pass < 2; ++pass) {
            for (std::uint64_t off = 0; off < 64 * kKiB; off += 4 * kKiB) {
              const SimTime t0 = ll.now();
              (void)co_await fs.read(*f, off, 4 * kKiB);
              a.add(static_cast<double>(ll.now() - t0));
            }
          }
        }(l, *cs[c], acc));
      }
      co_await sim::when_all(l, std::move(readers));
    }(tb.loop(), tb, std::move(clients), reads));
    tb.loop().run();
    return reads.mean();
  };

  const double plain = run(false);
  const double banked = run(true);
  Table t({"config", "mean 4K shared read (us)"});
  t.add_row({"Lustre-1DS (cold client caches)", Table::cell(plain / 1e3)});
  t.add_row({"Lustre-1DS + 2-MCD bank", Table::cell(banked / 1e3)});
  print_table(t, args);
  std::printf("# reduction from the integrated bank: %s\n",
              pct_reduction(plain, banked).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Ablations: the paper's future-work directions (§7) ==\n");
  cluster::print_calibration_banner(net::ipoib_rc());
  rdma_ablation(args);
  hash_ablation(args);
  scalability_ablation(args);
  lustre_bank_ablation(args);
  return 0;
}
