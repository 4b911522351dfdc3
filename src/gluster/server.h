// The GlusterFS brick process: protocol/server dispatch on top of a
// translator stack ending in storage/posix.
//
// Default stack (bottom to top):   posix -> io-threads -> [pushed]
// The paper's SMCache is pushed on top, where it sees client fops on entry
// and their results on return — its "hooks in the callback handler".
//
// Each incoming request charges the brick's CPU a userspace-daemon dispatch
// cost (GlusterFS runs in userspace; this is the overhead RDMA cannot
// remove, paper §3 "Server load problems").
//
// Failure model (DESIGN.md §5f): the brick can crash and restart on the
// simulated clock. A crash drops everything volatile (the page cache) while
// the ObjectStore (the disk) survives, as does the replay window (modelled
// as journalled with the data it describes). In-flight fops have their
// replies replaced with kConnReset: the work may or may not have reached
// disk, and the client cannot tell — which is exactly why mutations carry
// (client_id, op_seq) and the brick answers replayed ones from the window
// instead of re-applying them.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gluster/io_threads.h"
#include "gluster/posix.h"
#include "gluster/protocol.h"
#include "gluster/xlator.h"
#include "net/rpc.h"
#include "sim/sync.h"
#include "store/block_device.h"
#include "store/object_store.h"

namespace imca::gluster {

// Userspace daemon CPU per fop.
inline constexpr SimDuration kFopDispatchCpu = 110 * kMicro;

struct GlusterServerParams {
  std::size_t io_threads = 16;
  std::uint64_t page_cache_bytes = 6 * kGiB;   // of the server's 8 GB
  // --- admission control (0 = unbounded, the seed behaviour) ---
  // Fops allowed inside dispatch at once; beyond this the brick sheds kBusy.
  std::size_t admission_limit = 0;
  // Queue bound in front of the io-threads pool (see IoThreadsXlator).
  std::size_t io_queue_limit = 0;
};

struct GlusterServerStats {
  std::uint64_t fops = 0;
  std::uint64_t sheds_admission = 0;  // kBusy: dispatch concurrency bound
  std::uint64_t sheds_expired = 0;    // kBusy: client deadline already blown
  std::uint64_t sheds_io = 0;         // kBusy: io-threads queue bound
  std::uint64_t replays_seen = 0;     // requests arriving with retry != 0
  std::uint64_t replays_deduped = 0;  // answered from the replay window
  std::uint64_t replays_parked = 0;   // replays that overtook their original
                                      // and waited for it to finish
  std::uint64_t duplicate_applies = 0;  // invariant counter: must stay 0
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t replies_lost_in_crash = 0;  // fops in flight at crash time
};

class GlusterServer {
 public:
  GlusterServer(net::RpcSystem& rpc, net::NodeId node,
                GlusterServerParams params = {});

  GlusterServer(const GlusterServer&) = delete;
  GlusterServer& operator=(const GlusterServer&) = delete;

  // Insert a translator above the current stack top (below dispatch).
  // Must be called before start().
  void push_translator(std::unique_ptr<Xlator> xlator);

  // Register the brick on the fabric (port 24007).
  void start();

  // Kill the brick process now: stop listening, drop the page cache, and
  // invalidate in-flight replies (they become kConnReset — the connection
  // died with the process). The ObjectStore and the replay window survive:
  // they are the disk.
  void crash();
  // Bring the brick back up. Storage state is whatever survived the crash.
  void restart();
  // Crash at `at`; restart at `restart_at` if given. One brick can take
  // several scheduled crashes.
  void schedule_crash(SimTime at,
                      std::optional<SimTime> restart_at = std::nullopt);

  net::NodeId node() const noexcept { return node_; }
  bool up() const noexcept { return up_; }
  store::ObjectStore& object_store() noexcept { return os_; }
  store::BlockDevice& device() noexcept { return dev_; }
  // Stack top — tests drive fops through it directly.
  Xlator& top() noexcept { return *stack_.back(); }

  std::uint64_t fops_served() const noexcept { return stats_.fops; }
  GlusterServerStats stats() const {
    GlusterServerStats s = stats_;
    s.sheds_io = io_->sheds();
    return s;
  }

 private:
  // Last `kReplayWindow` mutation replies per client, keyed by op_seq. The
  // window is journalled with the data (ObjectStore lifetime), so a replay
  // after a crash still finds the recorded reply. 64 is far deeper than any
  // client's in-flight mutation count (one, in this codebase).
  static constexpr std::size_t kReplayWindow = 64;
  struct ReplaySlot {
    std::uint64_t seq = 0;
    FopReply reply;
  };
  struct ClientWindow {
    std::deque<ReplaySlot> slots;  // ascending insertion order
  };

  sim::Task<ByteBuf> handle(ByteBuf request, net::NodeId from);
  sim::Task<FopReply> process(FopRequest req, SimTime arrival);
  sim::Task<FopReply> dispatch(FopRequest req);
  const FopReply* window_lookup(std::uint64_t client_id,
                                std::uint64_t seq) const;
  void window_record(std::uint64_t client_id, std::uint64_t seq,
                     const FopReply& reply);

  net::RpcSystem& rpc_;
  net::NodeId node_;
  GlusterServerParams params_;
  store::ObjectStore os_;
  store::BlockDevice dev_;
  std::vector<std::unique_ptr<Xlator>> stack_;  // [0]=posix .. back()=top
  IoThreadsXlator* io_ = nullptr;
  std::map<std::uint64_t, ClientWindow> windows_;
  // Mutations currently inside dispatch, keyed (client_id, op_seq). A
  // replay that overtakes its original (client attempt timeout < server
  // work) parks on the event instead of re-applying.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<sim::Event>>
      inflight_mutations_;
  GlusterServerStats stats_;
  std::uint64_t boot_epoch_ = 0;
  std::size_t inflight_ = 0;
  bool started_ = false;
  bool up_ = false;
};

}  // namespace imca::gluster
