// Figure 1 — the motivation experiment (paper §3): multi-client IOzone read
// bandwidth over NFS with three transports (native IB RDMA, TCP over IPoIB,
// TCP over GigE) and two server memory sizes (4 GB and 8 GB).
//
// The figure's message: the transports separate (RDMA > IPoIB >> GigE) only
// while the aggregate file set fits the server's page cache; past that
// boundary every transport collapses to the disk array's rate — "the
// bandwidth available to the clients seems to be related to the amount of
// memory on the server".
//
// Scaling: 128 MB per client file against 512 MB / 1 GB server caches
// (1/8 of the paper's 1 GB files against 4 GB / 8 GB servers).
#include <cstdio>

#include "bench_util.h"
#include "workload/iozone.h"

namespace {

using namespace imca;
using namespace imca::bench;
using cluster::NfsTestbed;
using cluster::NfsTestbedConfig;
using workload::IozoneOptions;

constexpr std::uint64_t kFileBytes = 128 * kMiB;  // paper: 1 GB per client

double run(net::TransportParams transport, std::uint64_t server_cache,
           std::size_t clients) {
  NfsTestbedConfig cfg;
  cfg.n_clients = clients;
  cfg.transport = std::move(transport);
  cfg.server.page_cache_bytes = server_cache;
  NfsTestbed tb(cfg);
  IozoneOptions opt;
  opt.file_bytes = kFileBytes;
  opt.request_size = 256 * kKiB;
  return workload::run_iozone(tb.loop(), clients_of(tb), opt)
      .aggregate_read_mbps;
}

void panel(const char* title, std::uint64_t server_cache,
           const BenchArgs& args) {
  std::printf("\n-- %s (server cache %llu MB; files %llu MB/client) --\n",
              title, static_cast<unsigned long long>(server_cache / kMiB),
              static_cast<unsigned long long>(kFileBytes / kMiB));
  Table table({"clients", "RDMA", "IPoIB", "GigE"});
  for (const std::size_t clients : {1u, 2u, 4u, 8u, 12u}) {
    table.add_row({Table::cell(static_cast<std::uint64_t>(clients)),
                   Table::cell(run(net::ib_rdma(), server_cache, clients), 1),
                   Table::cell(run(net::ipoib_rc(), server_cache, clients), 1),
                   Table::cell(run(net::gige(), server_cache, clients), 1)});
  }
  print_table(table, args);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, kCsv);
  std::printf("== Fig 1: multi-client IOzone read bandwidth (MB/s) over NFS"
              " ==\n");
  cluster::print_calibration_banner(net::ipoib_rc());

  // Fig 1(a): 4 GB server -> scaled 512 MB. Fig 1(b): 8 GB -> 1 GB.
  panel("Fig 1(a)", 512 * kMiB, args);
  panel("Fig 1(b)", 1 * kGiB, args);

  std::printf("\n# paper: bandwidth falls off once the aggregate file set"
              " exceeds server memory, and the larger-memory server sustains"
              " transport-bound bandwidth to higher client counts;"
              " RDMA > IPoIB >> GigE before the cliff.\n");
  return 0;
}
