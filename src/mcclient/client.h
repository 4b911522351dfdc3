// libmemcache-style client: talks the ASCII protocol to an array of MCDs
// over the simulated fabric.
//
// One McClient instance lives at each CMCache/SMCache translator. It owns
// the server list, routes each key through a ServerSelector, and implements
// libmemcache's failure behaviour: a daemon that refuses connections is
// marked dead and subsequent operations on it become misses/no-ops — IMCa
// keeps working because writes are always durable at the file server first
// (paper §4.4).
//
// On top of that base (and off by default, so a client with default params
// behaves exactly like the original), the client implements the failover
// machinery of DESIGN.md §5d:
//
//   * per-op deadlines (`op_timeout`) racing each RPC against the sim clock;
//   * bounded retry with exponential backoff for unclean outcomes (timeout,
//     torn reply) — never for clean refusals, which mean the daemon is down
//     and, by the crash semantics, empty;
//   * ejection after `eject_after` consecutive unclean failures: a dead or
//     flaky daemon takes zero traffic and its keys degrade to misses;
//   * reintegration probes every `retry_dead_interval`, with a mandatory
//     purge-on-rejoin (flush the daemon, then mark it alive) so a revived
//     daemon can never serve blocks from before its crash window;
//   * writer mode (`reliable_mutations`): sets/deletes retry until a clean
//     outcome so a purge is never silently lost, and deletes bypass the
//     ejection list (`delete_bypasses_ejection`) to kill stale copies on a
//     daemon that restarted behind the writer's back.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/units.h"
#include "common/expected.h"
#include "mcclient/selector.h"
#include "memcache/protocol.h"
#include "net/rpc.h"

namespace imca::mcclient {

struct ClientStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t dead_server_ops = 0;  // ops swallowed by a dead daemon
  // --- failover machinery (all zero when faults are off) ---
  std::uint64_t timeouts = 0;           // per-op deadlines that fired
  std::uint64_t truncated_replies = 0;  // torn replies caught by framing check
  std::uint64_t retries = 0;            // re-sent attempts (excludes the first)
  std::uint64_t ejections = 0;          // servers ejected for unclean streaks
  std::uint64_t rejoins = 0;            // dead->alive transitions
  std::uint64_t rejoin_purges = 0;      // flushes issued by rejoins (== rejoins)
  std::uint64_t bypass_deletes = 0;     // deletes sent despite a dead mark

  // Monotone counter CMCache snapshots around an MCD exchange to detect that
  // the exchange was degraded by a fault (any kind).
  std::uint64_t fault_signals() const noexcept {
    return timeouts + truncated_replies + dead_server_ops;
  }
};

struct McClientParams {
  // Per-key cost at the client (key construction, request building, VALUE
  // parsing) — libmemcache does this work for every key of a multi-get.
  SimDuration per_key_cpu = 2 * kMicro;
  // Optional dedicated transport to the daemons (the paper's future-work
  // idea of reaching the cache bank over native IB verbs/RDMA instead of
  // TCP over IPoIB). Null = the fabric's default transport.
  std::optional<net::TransportParams> transport;

  // --- failover knobs (defaults = original libmemcache behaviour) ---
  // Per-attempt deadline; 0 = no deadline (wait for the transport).
  SimDuration op_timeout = 0;
  // Attempts per get/stat-shaped op (1 = no retry).
  std::size_t get_attempts = 1;
  // Attempts per mutation when `reliable_mutations` is set.
  std::size_t mutation_attempts = 1;
  // Backoff before retry k (0-based) is min(backoff_base << k, backoff_cap).
  SimDuration backoff_base = 200 * kMicro;
  SimDuration backoff_cap = 5 * kMilli;
  // Eject a server after this many *consecutive* unclean failures; 0 = never.
  std::size_t eject_after = 3;
  // Probe an ejected server for rejoin after this long; 0 = never (a dead
  // server stays dead, as in the original client).
  SimDuration retry_dead_interval = 0;
  // Writer mode: retry mutations until a clean outcome (success or refusal)
  // instead of ejecting on unclean ones. A refusal means the daemon lost its
  // contents with the crash, so skipping the publish/purge is safe; an
  // unclean outcome means it may still hold the item, so give up only after
  // `mutation_attempts` tries.
  bool reliable_mutations = false;
  // Writer mode: send deletes even to servers marked dead. A daemon that
  // restarted behind this client's back may hold a freshly repaired copy of
  // a block the writer is invalidating; the bypass delete kills it (and a
  // successful one doubles as a rejoin probe).
  bool delete_bypasses_ejection = false;
};

class McClient {
 public:
  // `self` is the node the client runs on; `servers` the MCD nodes.
  McClient(net::RpcSystem& rpc, net::NodeId self,
           std::vector<net::NodeId> servers,
           std::unique_ptr<ServerSelector> selector,
           McClientParams params = {});

  McClient(const McClient&) = delete;
  McClient& operator=(const McClient&) = delete;

  // Fetch one value. kNoEnt on a miss; a dead daemon also reads as a miss.
  sim::Task<Expected<memcache::Value>> get(
      std::string key, std::optional<std::uint64_t> hint = std::nullopt);

  // Fetch several keys, grouped into one multi-get per daemon (libmemcache
  // batches this way). The result is aligned with the input: slot i holds
  // keys[i]'s value, or nullopt on a miss. Each reply is parsed straight
  // into its daemon's slots, with no per-key map and the values moved, not
  // copied. A key listed twice is sent twice and each copy takes one of the
  // daemon's answers in turn.
  sim::Task<std::vector<std::optional<memcache::Value>>> multi_get(
      std::vector<std::string> keys,
      std::span<const std::uint64_t> hints = {});

  // Store a value; kNoEnt if the daemon is dead (callers ignore: the data
  // is merely uncached), kTooBig/kKeyTooLong surface protocol limits (the
  // daemon's SERVER_ERROR and CLIENT_ERROR replies).
  sim::Task<Expected<void>> set(std::string key, Buffer data,
                                std::optional<std::uint64_t> hint = std::nullopt,
                                std::uint32_t flags = 0,
                                std::uint32_t exptime_s = 0);

  // Store only if the key is absent (memcached add). kNotStored when a value
  // is already cached — the verb read-repair wants: a repair can never
  // clobber a fresher publish.
  sim::Task<Expected<void>> add(std::string key, Buffer data,
                                std::optional<std::uint64_t> hint = std::nullopt,
                                std::uint32_t flags = 0,
                                std::uint32_t exptime_s = 0);

  // Remove a key (used by SMCache purge hooks). Missing keys are fine; a
  // dead daemon reads as kNoEnt (nothing cached there to purge).
  sim::Task<Expected<void>> del(std::string key,
                                std::optional<std::uint64_t> hint = std::nullopt);

  // --- pinned-server ops (write-back replication, DESIGN.md §5j) ---
  //
  // The write-back tier stores the same key on K *distinct* daemons, which
  // key hashing cannot guarantee; these variants address a daemon by index
  // (replica r of a key lives at (primary_of(key) + r) % server_count())
  // and run the same failover path as the routed verbs. A failed call keeps
  // its error, so the caller can tell a miss from a down daemon. The
  // optimistic index update is gets_at, modify, cas_at: kBusy if another
  // writer got there first, kNoEnt if the item vanished.
  std::size_t primary_of(std::string_view key) const {
    return route(key, std::nullopt);
  }
  sim::Task<Expected<memcache::Value>> get_at(std::size_t server,
                                              std::string key);
  sim::Task<Expected<memcache::Value>> gets_at(std::size_t server,
                                               std::string key);
  sim::Task<Expected<void>> set_at(std::size_t server, std::string key,
                                   Buffer data, std::uint32_t flags = 0) {
    return store_at(memcache::StoreVerb::kSet, server, std::move(key),
                    std::move(data), flags, 0);
  }
  sim::Task<Expected<void>> add_at(std::size_t server, std::string key,
                                   Buffer data, std::uint32_t flags = 0) {
    return store_at(memcache::StoreVerb::kAdd, server, std::move(key),
                    std::move(data), flags, 0);
  }
  sim::Task<Expected<void>> cas_at(std::size_t server, std::string key,
                                   Buffer data, std::uint64_t cas_id,
                                   std::uint32_t flags = 0);
  sim::Task<Expected<void>> del_at(std::size_t server, std::string key);

  // The event loop this client's fabric runs on; translators built over the
  // client use it to spawn fire-and-forget work (read-repair sets) and to
  // construct synchronization primitives.
  sim::EventLoop& loop() const noexcept { return rpc_.fabric().loop(); }

  std::size_t server_count() const noexcept { return servers_.size(); }
  const ClientStats& stats() const noexcept { return stats_; }
  const ServerSelector& selector() const noexcept { return *selector_; }
  bool server_dead(std::size_t i) const { return dead_.at(i); }

 private:
  // How an op's outcome maps onto the failover machinery.
  enum class OpKind : std::uint8_t {
    kGet,       // degrade to a miss; ejection applies
    kMutation,  // retried-until-clean in writer mode
    kDelete,    // like kMutation, plus the ejection bypass
  };
  // Wire framing of an intact reply, so torn (short-read) replies can be
  // classified as retryable before the protocol parser sees them.
  enum class ReplyShape : std::uint8_t {
    kTerminated,  // ends with "END\r\n" (get / gets)
    kLine,        // ends with "\r\n"    (store / cas / delete / flush)
  };

  std::size_t route(std::string_view key,
                    std::optional<std::uint64_t> hint) const {
    return selector_->pick(key, hint, servers_.size());
  }

  // Keys partitioned per daemon, moved (not copied) out of the input:
  // keys[s] holds daemon s's keys in input order and slots[s][j] is the
  // input index of keys[s][j]. Each daemon's pair moves on into its call
  // frame.
  struct KeyGroups {
    std::vector<std::vector<std::string>> keys;
    std::vector<std::vector<std::size_t>> slots;
  };
  KeyGroups group_by_server(std::vector<std::string> keys,
                            std::span<const std::uint64_t> hints) const;
  // A one-key get or gets on `server`; routing and the CPU charge are the
  // caller's. A miss, or a reply that does not parse, is kNoEnt; a failed
  // call returns the call's error.
  sim::Task<Expected<memcache::Value>> fetch_one(std::size_t server,
                                                 std::string key,
                                                 bool with_cas);

  // Full failover path: dead gate (with delete bypass and rejoin probes),
  // per-attempt deadline, framing check, retry/backoff, ejection.
  sim::Task<Expected<ByteBuf>> call(std::size_t server, ByteBuf request,
                                    OpKind op, ReplyShape shape);
  // One attempt: the raw RPC, raced against `op_timeout` when it is set.
  sim::Task<Expected<ByteBuf>> call_once(std::size_t server, ByteBuf request);
  // Purge-then-mark-alive. Every dead->alive transition funnels through here.
  sim::Task<bool> try_rejoin(std::size_t server);
  // The store core of set/add and their pinned twins: the daemon's reply,
  // or the failed call's error unchanged.
  sim::Task<Expected<void>> store_at(memcache::StoreVerb verb,
                                     std::size_t server, std::string key,
                                     Buffer data, std::uint32_t flags,
                                     std::uint32_t exptime_s);

  void mark_dead(std::size_t server);
  static bool reply_intact(const ByteBuf& resp, ReplyShape shape);

  net::RpcSystem& rpc_;
  net::NodeId self_;
  std::vector<net::NodeId> servers_;
  std::unique_ptr<ServerSelector> selector_;
  McClientParams params_;
  std::vector<bool> dead_;
  std::vector<std::size_t> unclean_streak_;
  std::vector<SimTime> next_probe_;
  ClientStats stats_;
};

}  // namespace imca::mcclient
