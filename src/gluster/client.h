// The GlusterFS client mount: FUSE bridge + client translator stack +
// protocol/client, exposing the common FileSystemClient API.
//
// GlusterFS keeps a small shim in the kernel and the rest in userspace;
// every fop pays two kernel/user crossings through FUSE (paper §2.1). The
// client keeps an fd -> absolute-path table, which is precisely the database
// CMCache consults ("on the open ... the absolute path of the file and the
// file descriptor is stored in a database", paper §4.3.2) — translators
// below the bridge all operate on absolute paths.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsapi/filesystem.h"
#include "gluster/distribute.h"
#include "gluster/protocol_client.h"
#include "gluster/replicate.h"
#include "gluster/xlator.h"
#include "net/rpc.h"

namespace imca::gluster {

// One kernel<->user switch + copy.
inline constexpr SimDuration kFuseCrossing = 7 * kMicro;

// An N x K brick grid: `bricks` holds the server node of every brick in
// row-major order (group g, replica r at index g*replicas + r), and the
// mount composes distribute-over-replicate on top of one ProtocolClient per
// brick. {one node, replicas=1} is the classic single-brick mount: one
// ProtocolClient, which is also the health view.
struct GlusterTopology {
  std::vector<net::NodeId> bricks;
  std::size_t replicas = 1;
};

class GlusterClient final : public fsapi::FileSystemClient {
 public:
  // Mount an N x K brick grid (distribute over replicate). `params` is the
  // deadline/retry/replay policy of every brick's protocol/client (defaults
  // are the seed's single-attempt behaviour).
  GlusterClient(net::RpcSystem& rpc, net::NodeId self,
                const GlusterTopology& topology,
                ProtocolClientParams params = {});

  // Insert a translator above the current stack top (e.g. CMCache). Must
  // precede the first fop.
  void push_translator(std::unique_ptr<Xlator> xlator);

  // --- FileSystemClient ---
  sim::Task<Expected<fsapi::OpenFile>> create(std::string path) override;
  sim::Task<Expected<fsapi::OpenFile>> open(std::string path) override;
  sim::Task<Expected<void>> close(fsapi::OpenFile file) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(fsapi::OpenFile file,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(fsapi::OpenFile file,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from, std::string to) override;
  sim::Task<Expected<void>> fsync(fsapi::OpenFile file) override;

  net::NodeId node() const noexcept { return self_; }
  Xlator& top() noexcept { return *stack_.back(); }
  // The terminal translator — health view for brownout, retry stats. Valid
  // only for the classic single-brick mount; grid mounts expose health()
  // and protocol_totals() instead.
  ProtocolClient& protocol() noexcept {
    assert(pcs_.size() == 1 && "protocol() needs a single-brick mount");
    return *pcs_.front();
  }

  // --- grid topology views -------------------------------------------------
  // Backend health as CMCache's brownout machinery should see it: the PC on
  // a single-brick mount, the bottom cluster xlator on a grid.
  ServerHealth& health() noexcept { return *health_; }
  std::size_t n_groups() const noexcept {
    return groups_.empty() ? 1 : groups_.size();
  }
  // Null when group g is a bare ProtocolClient (replicas == 1).
  ReplicateXlator* replica_group(std::size_t g) noexcept {
    return groups_.empty() ? nullptr : groups_.at(g);
  }
  // Null on single-group mounts.
  DistributeXlator* distribute() noexcept { return dht_; }
  // Which replicate group owns `path` (0 on single-group mounts).
  std::size_t group_of(const std::string& path) const {
    return dht_ != nullptr ? dht_->subvol_of(path) : 0;
  }
  // Per-brick retry/replay counters summed across every ProtocolClient of
  // the mount (max_op_elapsed takes the max).
  ProtocolClientStats protocol_totals() const;
  // Replicate-group counters summed across every group of the mount (all
  // zero when replicas == 1).
  ReplicateStats replicate_totals() const;
  // Drive self-heal to convergence on every replicate group.
  sim::Task<HealReport> heal_all();

 private:
  // Two FUSE crossings (request down, reply up) on the client CPU.
  sim::Task<void> fuse_charge();
  Expected<std::string> path_of(fsapi::OpenFile file) const;

  net::RpcSystem& rpc_;
  net::NodeId self_;
  std::vector<std::unique_ptr<Xlator>> stack_;  // [0]=bottom cluster xlator
  // Non-owning views into the bottom of the stack (owned via stack_[0]).
  std::vector<ProtocolClient*> pcs_;       // one per brick, row-major
  std::vector<ReplicateXlator*> groups_;   // empty when replicas == 1
  DistributeXlator* dht_ = nullptr;        // null on single-group mounts
  ServerHealth* health_ = nullptr;
  std::unordered_map<std::uint64_t, std::string> fd_table_;
  std::uint64_t next_fd_ = 3;  // 0/1/2 are taken, as ever
};

}  // namespace imca::gluster
