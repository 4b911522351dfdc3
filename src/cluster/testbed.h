// Testbed builders: stand up a whole simulated cluster in a few lines.
//
//  * GlusterTestbed — one GlusterFS brick (+ RAID + page cache), an optional
//    MCD array with the CMCache/SMCache translators wired in, and N client
//    nodes. n_mcds == 0 reproduces the paper's "NoCache" baseline.
//  * LustreTestbed  — MDS + 1..4 data servers + N coherent-cache clients.
//  * NfsTestbed     — one NFS server + N clients on a chosen transport.
//
// Each is a net::SimContext (loop, fabric, RPC, run()) plus the services on
// it, and all three hand their clients out as fsapi::FileSystemClient
// (clients()) so the same workload code (src/workload) drives every system
// in every figure.
#pragma once

#include <memory>
#include <vector>

#include "cluster/calibration.h"
#include "fsapi/filesystem.h"
#include "gluster/client.h"
#include "gluster/server.h"
#include "imca/cmcache.h"
#include "imca/config.h"
#include "imca/smcache.h"
#include "lustre/client.h"
#include "lustre/data_server.h"
#include "lustre/mds.h"
#include "memcache/server.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/sim_context.h"
#include "nfs/nfs.h"

namespace imca::cluster {

struct GlusterTestbedConfig {
  std::size_t n_clients = 1;
  std::size_t n_mcds = 0;  // 0 = plain GlusterFS ("NoCache")
  // Brick grid: n_bricks distribute groups of n_replicas AFR replicas each
  // (n_bricks * n_replicas brick servers total). 1 x 1 — the default — is
  // the paper's single-server testbed and the seed behaviour.
  std::size_t n_bricks = 1;
  std::size_t n_replicas = 1;
  // Wire SMCache into the server stack. false isolates the client-side
  // machinery (partial hits, read-repair): nothing repopulates the MCDs
  // except the clients themselves.
  bool smcache = true;
  core::ImcaConfig imca;
  std::uint64_t mcd_memory = kMcdMemoryBytes;
  net::TransportParams transport = net::ipoib_rc();
  gluster::GlusterServerParams server;
  // Every client's protocol/client deadline/retry/replay policy, one per
  // brick connection (defaults are the seed's single-attempt mode).
  gluster::ProtocolClientParams client;
  // Deterministic fault plan: probabilistic wire faults on every MCD's
  // memcached port and/or the brick's GlusterFS port, plus scheduled
  // crash/restart windows on either tier. Inert when inactive (default).
  net::FaultPlan faults;
  // DES kernel (DESIGN.md §5k): the schedule-shake seed (0 = plain FIFO
  // tie-break), fixed for the run.
  std::uint64_t tie_shake = 0;
};

class GlusterTestbed : public net::SimContext {
 public:
  explicit GlusterTestbed(GlusterTestbedConfig cfg);

  std::size_t n_clients() const noexcept { return clients_.size(); }
  fsapi::FileSystemClient& client(std::size_t i) { return *clients_.at(i); }
  std::vector<fsapi::FileSystemClient*> clients() const;
  // The same mount, concretely typed (protocol/client stats + health view).
  gluster::GlusterClient& gluster_client(std::size_t i) {
    return *clients_.at(i);
  }
  // The first brick — the whole tier on classic 1x1 deployments.
  gluster::GlusterServer& server() noexcept { return *servers_.front(); }
  // Brick grid views (row-major: group g, replica r at g*replicas + r).
  gluster::GlusterServer& brick(std::size_t i) { return *servers_.at(i); }
  std::size_t n_brick_servers() const noexcept { return servers_.size(); }
  // Aggregate brick counters (duplicate_applies et al. summed grid-wide).
  gluster::GlusterServerStats server_totals() const;
  bool imca_enabled() const noexcept { return !mcds_.empty(); }
  // The first brick's SMCache — the only one on 1x1 deployments.
  core::SmCacheXlator* smcache() noexcept {
    return smcaches_.empty() ? nullptr : smcaches_.front();
  }
  // Settle every brick's SMCache publish worker (grid-aware quiesce).
  sim::Task<void> quiesce_smcaches() {
    for (core::SmCacheXlator* sm : smcaches_) co_await sm->quiesce();
  }
  core::CmCacheXlator& cmcache(std::size_t i) { return *cmcaches_.at(i); }
  // Barrier every client's write-back tier (no-op when write-back is off).
  // Outcomes are deliberately ignored: a path whose extents were *lost* (all
  // dirty replicas died) still drains — the loss lands in writeback_losses().
  sim::Task<void> sync_writebacks() {
    for (core::CmCacheXlator* cm : cmcaches_) {
      if (cm->writeback() != nullptr) {
        (void)co_await cm->writeback()->sync_all();
      }
    }
  }
  // Aggregate write-back counters / accounted losses across every client.
  core::WritebackStats writeback_totals();
  std::vector<core::WbLostExtent> writeback_losses();
  memcache::McServer& mcd(std::size_t i) { return *mcds_.at(i); }
  std::size_t n_mcds() const noexcept { return mcds_.size(); }
  // Null unless the config carried an active fault plan.
  const net::FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }

  // Aggregate MCD counters (the paper reads these for miss-rate claims).
  memcache::CacheStats mcd_totals() const;

 private:
  GlusterTestbedConfig cfg_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::vector<net::NodeId> mcd_nodes_;
  std::vector<std::unique_ptr<memcache::McServer>> mcds_;
  std::vector<net::NodeId> brick_nodes_;
  std::vector<std::unique_ptr<gluster::GlusterServer>> servers_;
  std::vector<core::SmCacheXlator*> smcaches_;
  std::vector<std::unique_ptr<gluster::GlusterClient>> clients_;
  std::vector<core::CmCacheXlator*> cmcaches_;
};

struct LustreTestbedConfig {
  std::size_t n_clients = 1;
  std::size_t n_ds = 1;  // the paper's 1DS / 4DS
  net::TransportParams transport = net::ipoib_rc();
  lustre::DsParams ds;
  lustre::LustreClientParams client;
};

class LustreTestbed : public net::SimContext {
 public:
  explicit LustreTestbed(LustreTestbedConfig cfg);

  std::size_t n_clients() const noexcept { return clients_.size(); }
  lustre::LustreClient& client(std::size_t i) { return *clients_.at(i); }
  std::vector<fsapi::FileSystemClient*> clients() const;
  // The fabric node a client runs on (for stacking extra services there).
  net::NodeId client_node(std::size_t i) const { return client_nodes_.at(i); }
  lustre::MetadataServer& mds() noexcept { return *mds_; }
  std::size_t n_ds() const noexcept { return ds_.size(); }
  lustre::DataServer& ds(std::size_t i) { return *ds_.at(i); }

  // The paper's cold-cache methodology: unmount/remount every client.
  void cold_all() {
    for (auto& c : clients_) c->cold();
  }

 private:
  LustreTestbedConfig cfg_;
  std::unique_ptr<lustre::MetadataServer> mds_;
  std::vector<std::unique_ptr<lustre::DataServer>> ds_;
  std::vector<std::unique_ptr<lustre::LustreClient>> clients_;
  std::vector<net::NodeId> client_nodes_;
};

struct NfsTestbedConfig {
  std::size_t n_clients = 1;
  net::TransportParams transport = net::ipoib_rc();
  nfs::NfsServerParams server;
};

class NfsTestbed : public net::SimContext {
 public:
  explicit NfsTestbed(NfsTestbedConfig cfg);

  std::size_t n_clients() const noexcept { return clients_.size(); }
  nfs::NfsClient& client(std::size_t i) { return *clients_.at(i); }
  std::vector<fsapi::FileSystemClient*> clients() const;
  nfs::NfsServer& server() noexcept { return *server_; }

 private:
  NfsTestbedConfig cfg_;
  std::unique_ptr<nfs::NfsServer> server_;
  std::vector<std::unique_ptr<nfs::NfsClient>> clients_;
};

}  // namespace imca::cluster
