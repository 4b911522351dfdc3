#include "gluster/client.h"

#include <algorithm>
#include <cassert>

namespace imca::gluster {

GlusterClient::GlusterClient(net::RpcSystem& rpc, net::NodeId self,
                             net::NodeId server, GlusterClientParams params)
    : rpc_(rpc), self_(self), params_(params) {
  auto pc =
      std::make_unique<ProtocolClient>(rpc, self, server, params_.protocol);
  pcs_.push_back(pc.get());
  health_ = pc.get();
  stack_.push_back(std::move(pc));
}

GlusterClient::GlusterClient(net::RpcSystem& rpc, net::NodeId self,
                             const GlusterTopology& topology,
                             GlusterClientParams params)
    : rpc_(rpc), self_(self), params_(params) {
  const std::size_t k = topology.replicas == 0 ? 1 : topology.replicas;
  assert(!topology.bricks.empty() && topology.bricks.size() % k == 0);
  const std::size_t n_groups = topology.bricks.size() / k;

  // One subvolume per group: a ReplicateXlator over K protocol/clients, or
  // the bare protocol/client when K == 1.
  std::vector<std::unique_ptr<Xlator>> subvols;
  for (std::size_t g = 0; g < n_groups; ++g) {
    std::vector<std::unique_ptr<ProtocolClient>> conns;
    for (std::size_t r = 0; r < k; ++r) {
      conns.push_back(std::make_unique<ProtocolClient>(
          rpc, self, topology.bricks[g * k + r], params_.protocol));
      pcs_.push_back(conns.back().get());
    }
    if (k == 1) {
      subvols.push_back(std::move(conns.front()));
    } else {
      auto rep = std::make_unique<ReplicateXlator>(
          rpc.fabric().loop(), std::move(conns), params_.replicate);
      groups_.push_back(rep.get());
      subvols.push_back(std::move(rep));
    }
  }

  if (n_groups == 1) {
    health_ = k == 1 ? static_cast<ServerHealth*>(pcs_.front())
                     : static_cast<ServerHealth*>(groups_.front());
    stack_.push_back(std::move(subvols.front()));
  } else {
    auto dht = std::make_unique<DistributeXlator>(std::move(subvols),
                                                  params_.distribute);
    dht_ = dht.get();
    health_ = dht.get();
    stack_.push_back(std::move(dht));
  }
}

ProtocolClientStats GlusterClient::protocol_totals() const {
  ProtocolClientStats total;
  for (const ProtocolClient* pc : pcs_) {
    const auto& s = pc->stats();
    total.fops += s.fops;
    total.retries += s.retries;
    total.replays += s.replays;
    total.timeouts += s.timeouts;
    total.refusals += s.refusals;
    total.resets += s.resets;
    total.torn += s.torn;
    total.sheds_seen += s.sheds_seen;
    total.deadline_exhausted += s.deadline_exhausted;
    total.fast_fails += s.fast_fails;
    total.ejections += s.ejections;
    total.rejoins += s.rejoins;
    total.max_op_elapsed = std::max(total.max_op_elapsed, s.max_op_elapsed);
  }
  return total;
}

ReplicateStats GlusterClient::replicate_totals() const {
  ReplicateStats total;
  for (const ReplicateXlator* g : groups_) total += g->stats();
  return total;
}

sim::Task<HealReport> GlusterClient::heal_all() {
  HealReport total;
  for (ReplicateXlator* g : groups_) {
    const HealReport r = co_await g->heal_all();
    total.healed += r.healed;
    total.remaining += r.remaining;
  }
  co_return total;
}

void GlusterClient::push_translator(std::unique_ptr<Xlator> xlator) {
  xlator->set_child(stack_.back().get());
  stack_.push_back(std::move(xlator));
}

sim::Task<void> GlusterClient::fuse_charge() {
  co_await rpc_.fabric().node(self_).cpu().use(2 * params_.fuse_crossing);
}

Expected<std::string> GlusterClient::path_of(fsapi::OpenFile file) const {
  auto it = fd_table_.find(file.fd);
  if (it == fd_table_.end()) return Errc::kBadF;
  return it->second;
}

sim::Task<Expected<fsapi::OpenFile>> GlusterClient::create(std::string path) {
  co_await fuse_charge();
  auto attr = co_await top().create(path, 0644);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<fsapi::OpenFile>> GlusterClient::open(std::string path) {
  co_await fuse_charge();
  auto attr = co_await top().open(path);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<void>> GlusterClient::close(fsapi::OpenFile file) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await fuse_charge();
  fd_table_.erase(file.fd);
  co_return co_await top().close(*path);
}

sim::Task<Expected<void>> GlusterClient::fsync(fsapi::OpenFile file) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await fuse_charge();
  co_return co_await top().fsync(*path);
}

sim::Task<Expected<store::Attr>> GlusterClient::stat(std::string path) {
  co_await fuse_charge();
  co_return co_await top().stat(path);
}

sim::Task<Expected<Buffer>> GlusterClient::read(fsapi::OpenFile file,
                                                std::uint64_t offset,
                                                std::uint64_t len) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await fuse_charge();
  co_return co_await top().read(*path, offset, len);
}

sim::Task<Expected<std::uint64_t>> GlusterClient::write(fsapi::OpenFile file,
                                                        std::uint64_t offset,
                                                        Buffer data) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await fuse_charge();
  co_return co_await top().write(*path, offset, std::move(data));
}

sim::Task<Expected<void>> GlusterClient::unlink(std::string path) {
  co_await fuse_charge();
  co_return co_await top().unlink(path);
}

sim::Task<Expected<void>> GlusterClient::truncate(std::string path,
                                                  std::uint64_t size) {
  co_await fuse_charge();
  co_return co_await top().truncate(path, size);
}

sim::Task<Expected<void>> GlusterClient::rename(std::string from,
                                                std::string to) {
  co_await fuse_charge();
  auto r = co_await top().rename(from, to);
  if (r) {
    // Open handles follow the file: remap their paths.
    for (auto& [fd, p] : fd_table_) {
      if (p == from) p = to;
    }
  }
  co_return r;
}

}  // namespace imca::gluster
