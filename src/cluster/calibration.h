// Central record of the calibration constants behind every experiment.
//
// The paper's testbed (§5.1): 64 nodes, 8-core Intel Clovertown, 8 GB RAM,
// InfiniBand DDR HCAs, IPoIB(RC) transport everywhere, one GlusterFS server
// with an 8-disk HighPoint RAID, MCDs capped at 6 GB, Lustre 1.6.4.3 with a
// separate MDS. The per-component service times are named constants beside
// the code that charges them (a params struct keeps only what a workload
// sets); this header documents where the values come from and offers a
// one-call banner so every bench prints the constants it ran with.
//
// Sources for the defaults (2008-era measurements on comparable hardware):
//   * IPoIB-RC on DDR: ~25-30 us small-message RTT, 900-1000 MB/s streams.
//   * Native IB verbs: ~6 us RTT, 1.4+ GB/s.
//   * GigE/TCP: ~50-60 us RTT, ~117 MB/s.
//   * 7200 rpm SATA: ~8 ms avg seek, ~4 ms half rotation, ~70 MB/s media.
//   * FUSE null-op crossing: ~15-20 us round trip.
//   * memcached get/set service: single-digit microseconds plus memcpy.
#pragma once

#include <cstdio>

#include "gluster/client.h"
#include "gluster/posix.h"
#include "gluster/server.h"
#include "lustre/client.h"
#include "lustre/data_server.h"
#include "lustre/mds.h"
#include "memcache/server.h"
#include "net/transport.h"
#include "nfs/nfs.h"
#include "store/disk.h"

namespace imca::cluster {

// The paper's node: 8-core Clovertown.
inline constexpr std::size_t kCoresPerNode = 8;
// MCD daemons may use up to 6 GB (paper §5.1).
inline constexpr std::uint64_t kMcdMemoryBytes = 6 * kGiB;

// Print the key constants a bench ran with (goes above each table so
// EXPERIMENTS.md entries are self-describing).
inline void print_calibration_banner(const net::TransportParams& t) {
  std::printf(
      "# transport=%s wire=%.1fus bw=%.0fMB/s cpu/msg=%.1f/%.1fus | "
      "disk: seek=%.0fms rot=%.0fms media=%.0fMB/s | fuse=%.0fus/op "
      "gluster-dispatch=%.0fus posix-meta=%.0fus "
      "mcd-service=%.0fus+%.0fus/key\n",
      t.name.c_str(), to_micros(t.wire_latency),
      static_cast<double>(t.bandwidth_bps) / static_cast<double>(kMiB),
      to_micros(t.send_cpu_per_msg), to_micros(t.recv_cpu_per_msg),
      to_millis(store::kDiskAvgSeek), to_millis(store::kDiskHalfRotation),
      to_mib(store::kDiskTransferBps),
      to_micros(2 * gluster::kFuseCrossing),  // one crossing each way
      to_micros(gluster::kFopDispatchCpu), to_micros(gluster::kPosixMetaOpCpu),
      to_micros(memcache::kMcdBaseService),
      to_micros(memcache::kMcdPerKeyService));
}

}  // namespace imca::cluster
