// Lustre-like metadata server (MDS) with a distributed lock manager.
//
// The paper contrasts IMCa's lockless cache bank with Lustre's coherent
// client caches: "Lustre uses locking with the metadata server acting as a
// lock manager ... Writes are flushed before locks are released. With a
// large number of clients, the overhead of maintaining locks and keeping the
// client caches coherent increases" (§1). This MDS implements exactly that
// cost structure:
//
//   * namespace ops (create/stat/unlink) are RPCs to the MDS node;
//   * clients take per-file PR (read) or PW (write) locks before caching;
//     granted locks are cached client-side until revoked;
//   * a conflicting request forces the MDS to revoke every conflicting
//     holder — one callback round trip per holder, plus a dirty-page flush
//     by write holders — before the new lock is granted.
//
// Lock state lives at the MDS; each client registers a revocation handler so
// the MDS can invalidate its cache synchronously (the simulation analogue of
// an LDLM blocking callback).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "net/rpc.h"
#include "sim/sync.h"
#include "store/block_device.h"
#include "store/object_store.h"

namespace imca::lustre {

enum class LockMode : std::uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

class MetadataServer {
 public:
  // Client-side hook the MDS calls (after charging the callback round trip)
  // when it revokes a lock. `requested` is the mode the competing client
  // asked for — Lustre's blocking callbacks carry the conflicting mode, and
  // stacked caches need it: only a writer's arrival invalidates data.
  using RevokeFn = std::function<sim::Task<void>(std::string path,
                                                 LockMode requested)>;

  MetadataServer(net::RpcSystem& rpc, net::NodeId node);

  net::NodeId node() const noexcept { return node_; }
  store::ObjectStore& namespace_store() noexcept { return ns_; }

  // --- metadata ops (invoked via the owning client's RPC wrappers) ---
  sim::Task<Expected<store::Attr>> create(std::string path);
  sim::Task<Expected<store::Attr>> stat(std::string path);
  sim::Task<Expected<void>> unlink(std::string path);
  // Size updates flow back from clients after writes (Lustre's size-on-MDS
  // simplification of its glimpse protocol).
  sim::Task<Expected<void>> set_size(std::string path,
                                     std::uint64_t size);
  // Explicit truncate: unlike set_size, the size may shrink.
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size);
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to);

  // --- lock manager ---
  // Grant `mode` on `path` to `client`, revoking conflicting holders first.
  sim::Task<Expected<void>> lock(std::string path, std::uint32_t client,
                                 LockMode mode);
  void register_client(std::uint32_t client, RevokeFn revoke);
  // Drop every lock `client` holds (unmount — the paper's cold-cache knob).
  void drop_client_locks(std::uint32_t client);

  std::uint64_t lock_requests() const noexcept { return lock_requests_; }
  std::uint64_t revocations() const noexcept { return revocations_; }

 private:
  struct LockState {
    // Per-holder granted mode; compatibility is judged against the other
    // holders' modes, not a single aggregate.
    std::map<std::uint32_t, LockMode> holders;
  };

  sim::Task<void> charge_op();

  net::RpcSystem& rpc_;
  net::NodeId node_;
  store::ObjectStore ns_;  // attributes only; file bytes live on the DSs
  store::BlockDevice dev_;
  std::map<std::string, LockState> locks_;
  std::map<std::uint32_t, RevokeFn> clients_;
  sim::SimMutex lock_mutex_;  // serializes lock-manager state transitions
  std::uint64_t lock_requests_ = 0;
  std::uint64_t revocations_ = 0;
};

}  // namespace imca::lustre
