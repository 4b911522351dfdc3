// A memcached daemon ("MCD") bound to a simulated node.
//
// The daemon registers the memcached port on its node and services protocol
// requests, charging its node's CPU a parse/hash cost plus a per-byte copy
// cost. Because each daemon sits on its own node with its own NIC, an array
// of MCDs aggregates network and CPU capacity — the scalability mechanism
// the paper's Figs 5 and 9 measure.
//
// stop()/start() model killing and restarting the daemon for the
// failure-injection experiments (paper §4.4: failures in MCDs must not
// impact correctness).
#pragma once

#include <cstdint>
#include <optional>

#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "net/rpc.h"
#include "sim/resource.h"

namespace imca::memcache {

// Fixed cost to parse a request off the socket.
inline constexpr SimDuration kMcdBaseService = 3 * kMicro;
// Per-key cost (hash lookup, LRU bump, VALUE header emit) — the reason a
// 256-byte IMCa block loses to NoCache on large reads (paper §5.3:
// "CMCache must make multiple trips to the MCDs").
inline constexpr SimDuration kMcdPerKeyService = 3 * kMicro;
// Byte-movement rate through the daemon: slab copy + socket write + TCP
// checksumming on one 2008-era core. This caps a daemon's data throughput
// at roughly the ~220 MB/s per MCD the paper's Fig 9 implies.
inline constexpr std::uint64_t kMcdCopyBps = 450 * kMiB;

class McServer {
 public:
  McServer(net::RpcSystem& rpc, net::NodeId node, std::uint64_t memory_limit);
  ~McServer();
  McServer(const McServer&) = delete;
  McServer& operator=(const McServer&) = delete;

  // Begin accepting requests (registers the RPC handler).
  void start();
  // Kill the daemon: stop listening and discard all cached items (a daemon
  // restart comes back empty, as a real memcached would).
  void stop();
  bool running() const { return rpc_.listening(node_, net::kPortMemcached); }

  // Deterministic crash window for fault plans: stop() at `at`, and if
  // `restart_at` is given, start() again then (cold, per stop()'s flush).
  void schedule_crash(SimTime at, std::optional<SimTime> restart_at = std::nullopt);

  McCache& cache() noexcept { return cache_; }
  const McCache& cache() const noexcept { return cache_; }
  net::NodeId node() const noexcept { return node_; }

 private:
  sim::Task<ByteBuf> handle(ByteBuf request, net::NodeId from);

  net::RpcSystem& rpc_;
  net::NodeId node_;
  McCache cache_;
  // memcached 1.2 is single-threaded: all request processing serializes
  // through this one worker, regardless of how many cores the node has.
  // This is why a loaded bank keeps gaining from daemons beyond the point
  // where its memory stops missing (paper §5.2).
  sim::FifoResource worker_;
};

}  // namespace imca::memcache
