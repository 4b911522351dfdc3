// cluster/replicate: AFR-style synchronous replication across K bricks.
//
// GlusterFS's AFR (automatic file replication) translator writes every
// mutation to all children and requires a quorum of acknowledgements before
// reporting success; a per-path changelog records which children are behind
// so reads avoid them and self-heal can copy a rejoining brick back to
// byte-equality. This translator renders the same contract on the simulated
// stack (DESIGN.md §5i):
//
//   * Mutations fan out to all K children in parallel and commit iff at
//     least `quorum` children acknowledge AND at least one of them held a
//     fresh (up-to-date) copy before the op. A committed mutation bumps the
//     path's write epoch; children that acked from a fresh copy are fresh at
//     the new epoch, everyone else is marked dirty.
//   * Reads and stats are served by one fresh child — the path's affinity
//     child (hash(path) % K) when it is fresh and reachable, otherwise the
//     next fresh child in index order (counted as a read-child switch). A
//     dirty child NEVER serves reads: that is the safety half of self-heal.
//   * Self-heal copies a dirty child's paths back from a fresh sibling
//     (full-file: stat+read source, create/truncate/write target — or
//     unlink, if the fresh side deleted the file) and only then clears the
//     dirty mark. Heals run inline on open() and in the background when a
//     fop notices a child's ProtocolClient transitioned down -> up.
//   * Mutations and heals on the same path serialize on a per-path mutex:
//     without it a slow heal could overwrite a newer client write on the
//     target child (and republish stale bytes through the brick's SMCache).
//
// Every container that influences op order is an ordered std::map/std::set:
// the fault matrices diff the timer-wheel run against --legacy-queue byte
// for byte, and unordered iteration would break that determinism contract.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "gluster/protocol_client.h"
#include "gluster/xlator.h"
#include "sim/sync.h"

namespace imca::gluster {

struct ReplicateParams {
  // Acks required to commit a mutation. 0 = majority (K/2 + 1).
  std::size_t quorum = 0;
};

struct ReplicateStats {
  std::uint64_t mutations = 0;
  std::uint64_t quorum_short_writes = 0;  // mutations that failed quorum
  std::uint64_t partial_acks = 0;   // committed with >= 1 child missing
  std::uint64_t reads = 0;
  std::uint64_t read_child_switches = 0;  // path served by a new child
  std::uint64_t reads_degraded = 0; // no fresh child was reachable; the op
                                    // rode the probe machinery of a down one
  std::uint64_t heals_scheduled = 0;  // background heal workers spawned
  std::uint64_t heals_completed = 0;  // (child, path) pairs made byte-equal
  std::uint64_t heal_bytes_copied = 0;

  ReplicateStats& operator+=(const ReplicateStats& o) noexcept {
    mutations += o.mutations;
    quorum_short_writes += o.quorum_short_writes;
    partial_acks += o.partial_acks;
    reads += o.reads;
    read_child_switches += o.read_child_switches;
    reads_degraded += o.reads_degraded;
    heals_scheduled += o.heals_scheduled;
    heals_completed += o.heals_completed;
    heal_bytes_copied += o.heal_bytes_copied;
    return *this;
  }
};

struct HealReport {
  std::uint64_t healed = 0;     // (child, path) pairs brought fresh
  std::uint64_t remaining = 0;  // still dirty (no reachable fresh source)
};

class ReplicateXlator final : public Xlator, public ServerHealth {
 public:
  // Takes ownership of one protocol/client per replica. All children hold
  // the same namespace; `loop` drives the parallel fan-out and heal workers.
  ReplicateXlator(sim::EventLoop& loop,
                  std::vector<std::unique_ptr<ProtocolClient>> replicas,
                  ReplicateParams params = {});
  ~ReplicateXlator() override;

  sim::Task<Expected<store::Attr>> create(std::string path,
                                          std::uint32_t mode) override;
  sim::Task<Expected<store::Attr>> open(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path, std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from, std::string to) override;
  // Durability barrier: fanned out to every reachable child, succeeds on a
  // quorum of acks. Changes no replica state, so no epoch bump / dirty marks.
  sim::Task<Expected<void>> fsync(std::string path) override;

  std::string_view name() const override { return "replicate"; }

  // --- ServerHealth: down only while EVERY child is unreachable (the
  // brownout-safety contract — see the definition for the argument) ---
  bool server_down() const override;
  SimTime server_down_since() const override;

  std::size_t replica_count() const noexcept { return replicas_.size(); }
  std::size_t quorum() const noexcept { return quorum_; }
  ProtocolClient& replica(std::size_t i) { return *replicas_.at(i); }

  // True when child `i` holds the latest committed state of `path`.
  bool fresh(std::size_t i, const std::string& path) const {
    return dirty_.at(i).count(path) == 0;
  }
  std::size_t dirty_paths(std::size_t i) const { return dirty_.at(i).size(); }

  // Verification backdoors: hit one replica directly, bypassing read-child
  // selection. The fault matrices use these to prove a healed brick is
  // byte-identical to its siblings.
  sim::Task<Expected<Buffer>> read_from(std::size_t i, std::string path,
                                        std::uint64_t offset,
                                        std::uint64_t len);
  sim::Task<Expected<store::Attr>> stat_from(std::size_t i, std::string path);

  // Heal every dirty (child, path) pair that has a reachable fresh source,
  // repeating until no further progress is possible.
  sim::Task<HealReport> heal_all();

  const ReplicateStats& stats() const noexcept { return stats_; }

 private:
  // Outcome of one quorum round over the per-child results of a mutation.
  struct Quorum {
    bool committed = false;
    std::size_t winner = 0;  // first child that acked from a fresh copy
    Errc err = Errc::kTimedOut;  // representative error when not committed
  };

  static bool retryable(Errc e) noexcept {
    return e == Errc::kTimedOut || e == Errc::kConnRefused ||
           e == Errc::kConnReset || e == Errc::kBusy || e == Errc::kProto;
  }

  std::uint64_t epoch_of(const std::string& path) const {
    auto it = epochs_.find(path);
    return it == epochs_.end() ? 0 : it->second;
  }
  void mark_dirty(std::size_t i, const std::string& path) {
    dirty_[i].insert(path);
  }
  // Apply the quorum rule to per-child errors for a mutation over `paths`
  // (one path, or two for rename). Bumps epochs / dirty sets on commit.
  Quorum commit(const std::vector<std::string>& paths,
                const std::vector<Errc>& child_err);
  // Read-child selection (see header comment). Counts switches/degrades.
  std::size_t pick_read_child(const std::string& path);
  void note_read_child(const std::string& path, std::size_t child);
  // Spawn background heal workers for children that just came back up.
  void poll_rejoins();
  void spawn_heal(std::size_t child);
  static sim::Task<void> heal_worker(ReplicateXlator* self,
                                     std::weak_ptr<const bool> alive,
                                     std::size_t child);
  // Copy `path` on `child` back to byte-equality with a fresh sibling.
  // True iff the dirty mark was cleared (false: no source, raced a write).
  sim::Task<bool> heal_path(std::size_t child, std::string path);
  sim::Task<bool> heal_path_locked(std::size_t child, std::string path);
  sim::SimMutex& path_lock(const std::string& path);
  // GC bookkeeping for paths that are gone everywhere.
  void maybe_forget(const std::string& path);

  sim::EventLoop& loop_;
  std::vector<std::unique_ptr<ProtocolClient>> replicas_;
  ReplicateParams params_;
  std::size_t quorum_ = 0;
  // path -> committed write epoch (monotone; heal uses it to detect races).
  std::map<std::string, std::uint64_t> epochs_;
  // Per child: paths whose latest committed mutation it missed.
  std::vector<std::set<std::string>> dirty_;
  // Per child: last observed ProtocolClient health, for rejoin edges.
  std::vector<bool> was_down_;
  std::vector<bool> healing_;  // a heal worker is active for this child
  std::map<std::string, std::size_t> last_read_child_;
  std::map<std::string, std::unique_ptr<sim::SimMutex>> path_locks_;
  // Background heal workers outlive fops; they bail out through this token
  // if the xlator is torn down first (same idiom as write-behind).
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  ReplicateStats stats_;
};

}  // namespace imca::gluster
