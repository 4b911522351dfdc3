// Lustre-like client: kernel-space file system client with a coherent,
// lock-protected page cache.
//
// Contrast with GlusterFS (paper §1/§2): no FUSE crossings (Lustre's client
// is in the kernel), a real client-side cache (the paper's "Warm" runs serve
// reads from it at near-local latency), and MDS-managed locks paid on first
// access to every file — the coherency overhead that grows with client
// count.
//
// cold() models the paper's cold-cache methodology: "the Lustre client file
// system is unmounted and then remounted. This evicts any data from the
// client cache" (§5.3) — pages and cached locks are dropped; server-side
// caches stay warm.
//
// Simulation note: cached reads return bytes peeked directly from the DS
// object stores without charging time or network. The peek is exact, not a
// shortcut around coherence: a conflicting writer must first take a PW lock,
// which revokes this client's lock and drops its pages, so whenever the
// cache is valid the DS bytes equal the cached bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fsapi/filesystem.h"
#include "lustre/data_server.h"
#include "lustre/mds.h"
#include "lustre/stripe.h"
#include "net/rpc.h"
#include "store/page_cache.h"

namespace imca::lustre {

struct LustreClientParams {
  std::uint64_t cache_bytes = 2 * kGiB;     // client page cache
};

class LustreClient final : public fsapi::FileSystemClient {
 public:
  LustreClient(net::RpcSystem& rpc, net::NodeId self, MetadataServer& mds,
               std::vector<DataServer*> data_servers,
               LustreClientParams params = {});

  // --- FileSystemClient ---
  sim::Task<Expected<fsapi::OpenFile>> create(std::string path) override;
  sim::Task<Expected<fsapi::OpenFile>> open(std::string path) override;
  sim::Task<Expected<void>> close(fsapi::OpenFile file) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(fsapi::OpenFile file, std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(fsapi::OpenFile file,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from, std::string to) override;

  // Take (or reuse) a cached PR lock on `path` — exposed for layers that
  // stack caching above this client (lustre::CachedLustreClient) and need
  // the coherence epoch the lock defines.
  sim::Task<Expected<void>> lock_for_read(std::string path) {
    return ensure_lock(path, LockMode::kRead);
  }

  // Called (and awaited) whenever the MDS revokes one of this client's
  // locks, after the client's own pages are dropped. Stacked caches use it
  // to invalidate their tier; `requested` is the competing lock mode.
  void set_revoke_hook(std::function<sim::Task<void>(
                           std::string path, LockMode requested)>
                           hook) {
    revoke_hook_ = std::move(hook);
  }

  // Unmount/remount ("Cold" runs, paper §5.3): drop the page cache and every
  // cached lock, and stop caching reads until warm() is called. The paper's
  // cold curves pay a remote fetch for every record (they track IMCa rather
  // than local-memory latency), which means the remounted client served no
  // reads from local pages during the measured sweep; disabling the cache
  // reproduces that observable directly.
  void cold();
  // Re-enable the client cache (fresh mounts are warmable by default).
  void warm() { cache_disabled_ = false; }

  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }

 private:
  sim::Task<void> charge_rpc(net::NodeId peer, std::uint64_t req_bytes,
                             std::uint64_t reply_bytes);
  sim::Task<Expected<void>> ensure_lock(std::string path,
                                        LockMode mode);
  // MDS revoke callback body (named coroutine; the registered lambda only
  // forwards).
  sim::Task<void> on_lock_revoked(std::string path, LockMode requested);
  Expected<std::string> path_of(fsapi::OpenFile file) const;
  std::uint64_t cache_key(const std::string& path) const;

  net::RpcSystem& rpc_;
  net::NodeId self_;
  MetadataServer& mds_;
  std::vector<DataServer*> ds_;
  StripeMapper stripes_;

  store::PageCache pages_;
  std::function<sim::Task<void>(std::string path, LockMode requested)>
      revoke_hook_;
  bool cache_disabled_ = false;
  std::map<std::string, LockMode> lock_cache_;
  std::map<std::uint64_t, std::string> fd_table_;
  std::uint64_t next_fd_ = 3;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace imca::lustre
