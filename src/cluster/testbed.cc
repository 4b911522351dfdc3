#include "cluster/testbed.h"

namespace imca::cluster {

GlusterTestbed::GlusterTestbed(GlusterTestbedConfig cfg)
    : cfg_(std::move(cfg)),
      loop_(cfg_.queue, cfg_.tie_shake),
      fabric_(loop_, cfg_.transport),
      rpc_(fabric_) {
  const std::size_t replicas = cfg_.n_replicas == 0 ? 1 : cfg_.n_replicas;
  const std::size_t groups = cfg_.n_bricks == 0 ? 1 : cfg_.n_bricks;
  const std::size_t n_servers = groups * replicas;
  for (std::size_t b = 0; b < n_servers; ++b) {
    // The single-server name is kept verbatim so 1x1 deployments reproduce
    // the seed's fabric layout (and its event order) exactly.
    const std::string name =
        n_servers == 1 ? std::string("gluster-server")
                       : "brick" + std::to_string(b / replicas) + "." +
                             std::to_string(b % replicas);
    brick_nodes_.push_back(fabric_.add_node(name, kCoresPerNode).id());
  }

  for (std::size_t i = 0; i < cfg_.n_mcds; ++i) {
    const auto n =
        fabric_.add_node("mcd" + std::to_string(i), kCoresPerNode).id();
    mcd_nodes_.push_back(n);
    mcds_.push_back(
        std::make_unique<memcache::McServer>(rpc_, n, cfg_.mcd_memory));
    mcds_.back()->start();
  }

  if (cfg_.faults.active()) {
    injector_ = std::make_unique<net::FaultInjector>(cfg_.faults.seed);
    if (cfg_.faults.spec.any()) {
      for (const auto n : mcd_nodes_) {
        injector_->set_spec(n, net::kPortMemcached, cfg_.faults.spec);
      }
    }
    if (cfg_.faults.server_spec.any()) {
      for (const auto n : brick_nodes_) {
        injector_->set_spec(n, net::kPortGluster, cfg_.faults.server_spec);
      }
    }
    rpc_.set_fault_injector(injector_.get());
    for (const auto& crash : cfg_.faults.crashes) {
      mcds_.at(crash.mcd)->schedule_crash(crash.at, crash.restart_at);
    }
  }

  for (std::size_t b = 0; b < n_servers; ++b) {
    servers_.push_back(std::make_unique<gluster::GlusterServer>(
        rpc_, brick_nodes_[b], cfg_.server));
    if (!mcds_.empty() && cfg_.smcache) {
      core::ImcaConfig icfg = cfg_.imca;
      // With K > 1 this brick is one replica of a group and may be stale
      // after a crash: switch its write hook to the replica-safe publish
      // protocol (payload-covered blocks only, invalidate the rest).
      icfg.replica_bricks = replicas > 1;
      auto sm = std::make_unique<core::SmCacheXlator>(
          loop_,
          std::make_unique<mcclient::McClient>(
              rpc_, brick_nodes_[b], mcd_nodes_, core::make_selector(icfg),
              core::make_mcclient_params(icfg, core::McRole::kWriter)),
          icfg);
      smcaches_.push_back(sm.get());
      servers_.back()->push_translator(std::move(sm));
    }
    servers_.back()->start();
  }
  // Brick crash windows are scheduled after start(): crash() is a no-op on
  // a brick that is not up. Each event names its brick in the grid.
  for (const auto& crash : cfg_.faults.server_crashes) {
    servers_.at(crash.brick)->schedule_crash(crash.at, crash.restart_at);
  }

  for (std::size_t c = 0; c < cfg_.n_clients; ++c) {
    const auto n =
        fabric_.add_node("client" + std::to_string(c), kCoresPerNode).id();
    if (n_servers == 1) {
      clients_.push_back(std::make_unique<gluster::GlusterClient>(
          rpc_, n, brick_nodes_.front(), cfg_.client));
    } else {
      gluster::GlusterTopology topo;
      topo.bricks = brick_nodes_;
      topo.replicas = replicas;
      clients_.push_back(std::make_unique<gluster::GlusterClient>(
          rpc_, n, topo, cfg_.client));
    }
    if (!mcds_.empty()) {
      auto cm = std::make_unique<core::CmCacheXlator>(
          std::make_unique<mcclient::McClient>(
              rpc_, n, mcd_nodes_, core::make_selector(cfg_.imca),
              core::make_mcclient_params(cfg_.imca, core::McRole::kReader)),
          cfg_.imca);
      // Brownout: this mount's CMCache watches its own mount's view of the
      // brick tier's health (the PC, or the cluster xlator on a grid).
      cm->set_server_health(&clients_.back()->health());
      if (cfg_.imca.writeback) {
        // Durable write-back (DESIGN.md §5j): a writer-role connection set
        // of its own — dirty payloads must survive rejoin purges and their
        // mutations must reach clean outcomes. writer_id is the fabric node
        // id: unique per client by construction.
        cm->set_writeback(std::make_unique<core::WritebackTier>(
            std::make_unique<mcclient::McClient>(
                rpc_, n, mcd_nodes_, core::make_selector(cfg_.imca),
                core::make_mcclient_params(cfg_.imca, core::McRole::kWriter)),
            static_cast<std::uint64_t>(n), cfg_.imca));
      }
      cmcaches_.push_back(cm.get());
      clients_.back()->push_translator(std::move(cm));
    }
  }
}

gluster::GlusterServerStats GlusterTestbed::server_totals() const {
  gluster::GlusterServerStats total;
  for (const auto& s : servers_) {
    const auto st = s->stats();
    total.fops += st.fops;
    total.sheds_admission += st.sheds_admission;
    total.sheds_expired += st.sheds_expired;
    total.sheds_io += st.sheds_io;
    total.replays_seen += st.replays_seen;
    total.replays_deduped += st.replays_deduped;
    total.replays_parked += st.replays_parked;
    total.duplicate_applies += st.duplicate_applies;
    total.crashes += st.crashes;
    total.restarts += st.restarts;
    total.wb_dropped_bytes += st.wb_dropped_bytes;
    total.replies_lost_in_crash += st.replies_lost_in_crash;
  }
  return total;
}

core::WritebackStats GlusterTestbed::writeback_totals() {
  core::WritebackStats total;
  for (core::CmCacheXlator* cm : cmcaches_) {
    const core::WritebackTier* wb = cm->writeback();
    if (wb == nullptr) continue;
    const auto& s = wb->stats();
    total.absorbed += s.absorbed;
    total.absorbed_bytes += s.absorbed_bytes;
    total.degraded_writes += s.degraded_writes;
    total.backpressure_sheds += s.backpressure_sheds;
    total.rollbacks += s.rollbacks;
    total.flushed_extents += s.flushed_extents;
    total.flushed_bytes += s.flushed_bytes;
    total.flush_retries += s.flush_retries;
    total.flush_requeues += s.flush_requeues;
    total.lost_extents += s.lost_extents;
    total.lost_bytes += s.lost_bytes;
    total.cas_conflicts += s.cas_conflicts;
    total.index_reinstalls += s.index_reinstalls;
    total.barrier_timeouts += s.barrier_timeouts;
    total.overlay_reads += s.overlay_reads;
    total.overlay_stats += s.overlay_stats;
    total.replica_drops += s.replica_drops;
  }
  return total;
}

std::vector<core::WbLostExtent> GlusterTestbed::writeback_losses() {
  std::vector<core::WbLostExtent> all;
  for (core::CmCacheXlator* cm : cmcaches_) {
    const core::WritebackTier* wb = cm->writeback();
    if (wb == nullptr) continue;
    all.insert(all.end(), wb->lost().begin(), wb->lost().end());
  }
  return all;
}

memcache::CacheStats GlusterTestbed::mcd_totals() const {
  memcache::CacheStats total;
  for (const auto& m : mcds_) {
    const auto& s = m->cache().stats();
    total.cmd_get += s.cmd_get;
    total.cmd_set += s.cmd_set;
    total.get_hits += s.get_hits;
    total.get_misses += s.get_misses;
    total.evictions += s.evictions;
    total.expired_unfetched += s.expired_unfetched;
    total.curr_items += s.curr_items;
    total.bytes += s.bytes;
  }
  return total;
}

LustreTestbed::LustreTestbed(LustreTestbedConfig cfg)
    : cfg_(std::move(cfg)), fabric_(loop_, cfg_.transport), rpc_(fabric_) {
  const auto mds_node = fabric_.add_node("mds", kCoresPerNode).id();
  mds_ = std::make_unique<lustre::MetadataServer>(rpc_, mds_node, cfg_.mds);

  std::vector<lustre::DataServer*> ds_ptrs;
  for (std::size_t i = 0; i < cfg_.n_ds; ++i) {
    const auto n = fabric_.add_node("ost" + std::to_string(i), kCoresPerNode).id();
    ds_.push_back(std::make_unique<lustre::DataServer>(rpc_, n, cfg_.ds));
    ds_ptrs.push_back(ds_.back().get());
  }

  for (std::size_t c = 0; c < cfg_.n_clients; ++c) {
    const auto n =
        fabric_.add_node("lclient" + std::to_string(c), kCoresPerNode).id();
    client_nodes_.push_back(n);
    clients_.push_back(std::make_unique<lustre::LustreClient>(
        rpc_, n, *mds_, ds_ptrs, cfg_.client));
  }
}

NfsTestbed::NfsTestbed(NfsTestbedConfig cfg)
    : cfg_(std::move(cfg)), fabric_(loop_, cfg_.transport), rpc_(fabric_) {
  const auto server_node = fabric_.add_node("nfs-server", kCoresPerNode).id();
  server_ = std::make_unique<nfs::NfsServer>(rpc_, server_node, cfg_.server);
  for (std::size_t c = 0; c < cfg_.n_clients; ++c) {
    const auto n =
        fabric_.add_node("nclient" + std::to_string(c), kCoresPerNode).id();
    clients_.push_back(std::make_unique<nfs::NfsClient>(rpc_, n, *server_));
  }
}

}  // namespace imca::cluster
