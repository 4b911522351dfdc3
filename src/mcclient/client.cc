#include "mcclient/client.h"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "sim/sync.h"

namespace imca::mcclient {

using memcache::StoreReply;
using memcache::StoreVerb;
using memcache::Value;

namespace {

// How a store reply surfaces to the caller.
Expected<void> store_outcome(Expected<StoreReply> parsed) {
  if (!parsed) return parsed.error();
  switch (*parsed) {
    case StoreReply::kStored: return {};
    case StoreReply::kNotStored: return Errc::kNotStored;
    case StoreReply::kServerError: return Errc::kTooBig;
    case StoreReply::kClientError: return Errc::kKeyTooLong;
  }
  return Errc::kProto;
}

// The routed verbs' view of a failed call: a dead daemon (clean refusal or
// reset) holds nothing, so the op reads as kNoEnt; anything else surfaces.
Expected<void> dead_as_no_ent(Expected<void> r) {
  if (!r && (r.error() == Errc::kConnRefused || r.error() == Errc::kConnReset))
    return Errc::kNoEnt;
  return r;
}

}  // namespace

McClient::McClient(net::RpcSystem& rpc, net::NodeId self,
                   std::vector<net::NodeId> servers,
                   std::unique_ptr<ServerSelector> selector,
                   McClientParams params)
    : rpc_(rpc),
      self_(self),
      servers_(std::move(servers)),
      selector_(std::move(selector)),
      params_(params),
      dead_(servers_.size(), false),
      unclean_streak_(servers_.size(), 0),
      next_probe_(servers_.size(), 0) {
  assert(!servers_.empty());
  assert(selector_ != nullptr);
}

bool McClient::reply_intact(const ByteBuf& resp, ReplyShape shape) {
  return resp.ends_with(shape == ReplyShape::kTerminated ? "END\r\n" : "\r\n");
}

void McClient::mark_dead(std::size_t server) {
  dead_[server] = true;
  unclean_streak_[server] = 0;
  if (params_.retry_dead_interval > 0) {
    next_probe_[server] = loop().now() + params_.retry_dead_interval;
  }
}

sim::Task<Expected<ByteBuf>> McClient::call_once(std::size_t server,
                                                 ByteBuf request) {
  const net::TransportParams* t =
      params_.transport ? &*params_.transport : nullptr;
  if (params_.op_timeout == 0) {
    co_return co_await rpc_.call(self_, servers_[server], net::kPortMemcached,
                                 std::move(request), t);
  }
  co_return co_await rpc_.call_within(params_.op_timeout, self_,
                                      servers_[server], net::kPortMemcached,
                                      std::move(request), t);
}

sim::Task<bool> McClient::try_rejoin(std::size_t server) {
  // Mandatory purge-on-rejoin: flush the daemon *before* taking it back, so
  // a revived daemon can never serve an item from before its crash window or
  // a repair that raced the restart (DESIGN.md §5d). The flush is the clean
  // variant: write-back dirty items are the only copy of acked bytes, so a
  // probe may never wipe them from a daemon that stayed up while this client
  // merely thought it dead (a crashed daemon restarts empty either way).
  auto resp = co_await call_once(server, memcache::encode_flush_clean());
  if (resp && reply_intact(*resp, ReplyShape::kLine)) {
    dead_[server] = false;
    unclean_streak_[server] = 0;
    ++stats_.rejoins;
    ++stats_.rejoin_purges;
    co_return true;
  }
  if (params_.retry_dead_interval > 0) {
    next_probe_[server] = loop().now() + params_.retry_dead_interval;
  }
  co_return false;
}

sim::Task<Expected<ByteBuf>> McClient::call(std::size_t server,
                                            ByteBuf request, OpKind op,
                                            ReplyShape shape) {
  if (dead_[server]) {
    const bool bypass =
        op == OpKind::kDelete && params_.delete_bypasses_ejection;
    if (bypass) {
      ++stats_.bypass_deletes;
    } else if (params_.retry_dead_interval > 0 &&
               loop().now() >= next_probe_[server]) {
      // Push the next probe out first so concurrent ops don't stampede the
      // daemon with flushes while this one is in flight.
      next_probe_[server] = loop().now() + params_.retry_dead_interval;
      if (!co_await try_rejoin(server)) {
        ++stats_.dead_server_ops;
        co_return Errc::kConnRefused;
      }
      // Revived: fall through and run the op against the (now empty) daemon.
    } else {
      ++stats_.dead_server_ops;
      co_return Errc::kConnRefused;
    }
  }

  const bool reliable =
      params_.reliable_mutations &&
      (op == OpKind::kMutation || op == OpKind::kDelete);
  const std::size_t attempts = std::max<std::size_t>(
      1, reliable ? params_.mutation_attempts : params_.get_attempts);

  Errc last = Errc::kTimedOut;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      co_await loop().sleep(
          backoff_delay(params_.backoff_base, attempt - 1, params_.backoff_cap));
    }
    ByteBuf wire = request;  // the RPC consumes its argument; retries re-copy
    // call() is awaited end-to-end by the front-end, which owns the
    // client — no destruction mid-suspension.
    // NOLINTNEXTLINE(imca-coro-this): frame awaited by the client's owner
    auto resp = co_await call_once(server, std::move(wire));

    if (resp && !reply_intact(*resp, shape)) {
      // Short read: the daemon processed the request but the reply is torn.
      // Same ambiguity as a lost reply, so classify it as unclean/retryable
      // rather than letting the protocol parser surface a hard kProto.
      ++stats_.truncated_replies;
      resp = Errc::kProto;
    }

    if (resp) {
      unclean_streak_[server] = 0;
      if (dead_[server]) {
        // A bypass delete reached a daemon that restarted behind our back.
        // Its cache may hold repairs from other clients made since; purge
        // and take it back (the delete itself already landed).
        co_await try_rejoin(server);
      }
      co_return resp;
    }

    last = resp.error();
    if (last == Errc::kConnRefused || last == Errc::kConnReset) {
      // Clean outcome: the daemon is down, and by the crash semantics its
      // contents died with it — skipping this op is safe, so never retry.
      mark_dead(server);
      ++stats_.dead_server_ops;
      co_return last;
    }

    // Unclean outcome (deadline fired or torn reply): the daemon may or may
    // not have applied the request and may still hold its items.
    if (last == Errc::kTimedOut) ++stats_.timeouts;
    if (!reliable && params_.eject_after > 0 &&
        ++unclean_streak_[server] >= params_.eject_after) {
      mark_dead(server);
      ++stats_.ejections;
      co_return last;
    }
  }
  co_return last;
}

sim::Task<Expected<Value>> McClient::fetch_one(std::size_t server,
                                               std::string key,
                                               bool with_cas) {
  const std::span<const std::string> keys(&key, 1);
  // Encoded in its own statement: inside a co_await expression, GCC 12
  // evaluates both arms of a conditional whose arms are class temporaries.
  ByteBuf request =
      with_cas ? memcache::encode_gets(keys) : memcache::encode_get(keys);
  auto resp = co_await call(server, std::move(request), OpKind::kGet,
                            ReplyShape::kTerminated);
  if (!resp) {
    ++stats_.misses;
    co_return resp.error();
  }
  std::optional<Value> slot[1];
  auto filled = memcache::parse_get_response(*resp, keys, slot);
  if (!filled || !slot[0]) {
    ++stats_.misses;  // a torn reply that still framed degrades to a miss
    co_return Errc::kNoEnt;
  }
  ++stats_.hits;
  co_return std::move(*slot[0]);
}

sim::Task<Expected<Value>> McClient::get(std::string key,
                                         std::optional<std::uint64_t> hint) {
  ++stats_.gets;
  co_await rpc_.fabric().node(self_).cpu().use(params_.per_key_cpu);
  const std::size_t server = route(key, hint);
  auto v = co_await fetch_one(server, std::move(key), /*with_cas=*/false);
  if (!v) co_return Errc::kNoEnt;  // dead or unreachable daemon: a miss
  co_return v;
}

McClient::KeyGroups McClient::group_by_server(
    std::vector<std::string> keys,
    std::span<const std::uint64_t> hints) const {
  const std::size_t n = keys.size();
  // Route everything first so each group can reserve its exact size; then
  // move (never copy) each key into its group, preserving input order within
  // the group.
  std::vector<std::size_t> server_of(n);
  std::vector<std::size_t> group_size(servers_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto hint = hints.empty()
                          ? std::optional<std::uint64_t>{}
                          : std::optional<std::uint64_t>{hints[i]};
    server_of[i] = route(keys[i], hint);
    ++group_size[server_of[i]];
  }
  KeyGroups g;
  g.keys.resize(servers_.size());
  g.slots.resize(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    g.keys[s].reserve(group_size[s]);
    g.slots[s].reserve(group_size[s]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.keys[server_of[i]].push_back(std::move(keys[i]));
    g.slots[server_of[i]].push_back(i);
  }
  return g;
}

sim::Task<std::vector<std::optional<Value>>> McClient::multi_get(
    std::vector<std::string> keys, std::span<const std::uint64_t> hints) {
  assert(hints.empty() || hints.size() == keys.size());
  const std::size_t n = keys.size();
  std::vector<std::optional<Value>> out(n);
  if (n == 0) co_return out;
  auto groups = group_by_server(std::move(keys), hints);
  stats_.gets += n;
  co_await rpc_.fabric().node(self_).cpu().use(n * params_.per_key_cpu);

  // One batched get per daemon, all in flight at once. Each reply is then
  // parsed against its own keys and the hits land in their input slots; a
  // failed or unparsable reply misses its whole group.
  std::vector<std::size_t> servers;
  std::vector<sim::Task<Expected<ByteBuf>>> calls;
  for (std::size_t s = 0; s < groups.keys.size(); ++s) {
    if (groups.keys[s].empty()) continue;
    servers.push_back(s);
    calls.push_back(call(s, memcache::encode_get(groups.keys[s]), OpKind::kGet,
                         ReplyShape::kTerminated));
  }
  auto replies = co_await sim::gather(rpc_.fabric().loop(), std::move(calls));
  for (std::size_t r = 0; r < replies.size(); ++r) {
    if (!replies[r]) continue;
    const auto& keys_for_server = groups.keys[servers[r]];
    std::vector<std::optional<Value>> got(keys_for_server.size());
    if (!memcache::parse_get_response(*replies[r], keys_for_server, got)) {
      continue;
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (got[j]) out[groups.slots[servers[r]][j]] = std::move(got[j]);
    }
  }

  std::size_t hit_count = 0;
  for (const auto& v : out) {
    if (v) ++hit_count;
  }
  stats_.hits += hit_count;
  stats_.misses += n - hit_count;
  co_return out;
}

sim::Task<Expected<void>> McClient::store_at(StoreVerb verb,
                                             std::size_t server,
                                             std::string key, Buffer data,
                                             std::uint32_t flags,
                                             std::uint32_t exptime_s) {
  ++stats_.sets;
  ByteBuf request = memcache::encode_store(verb, key, flags, exptime_s, data);
  auto resp = co_await call(server, std::move(request), OpKind::kMutation,
                            ReplyShape::kLine);
  if (!resp) co_return resp.error();
  co_return store_outcome(memcache::parse_store_response(*resp));
}

sim::Task<Expected<void>> McClient::set(std::string key, Buffer data,
                                        std::optional<std::uint64_t> hint,
                                        std::uint32_t flags,
                                        std::uint32_t exptime_s) {
  const std::size_t server = route(key, hint);
  auto r = co_await store_at(StoreVerb::kSet, server, std::move(key),
                             std::move(data), flags, exptime_s);
  co_return dead_as_no_ent(std::move(r));
}

sim::Task<Expected<void>> McClient::add(std::string key, Buffer data,
                                        std::optional<std::uint64_t> hint,
                                        std::uint32_t flags,
                                        std::uint32_t exptime_s) {
  const std::size_t server = route(key, hint);
  auto r = co_await store_at(StoreVerb::kAdd, server, std::move(key),
                             std::move(data), flags, exptime_s);
  co_return dead_as_no_ent(std::move(r));
}

sim::Task<Expected<void>> McClient::del(std::string key,
                                        std::optional<std::uint64_t> hint) {
  const std::size_t server = route(key, hint);
  auto r = co_await del_at(server, std::move(key));
  co_return dead_as_no_ent(std::move(r));
}

sim::Task<Expected<memcache::Value>> McClient::get_at(std::size_t server,
                                                      std::string key) {
  ++stats_.gets;
  co_await rpc_.fabric().node(self_).cpu().use(params_.per_key_cpu);
  co_return co_await fetch_one(server, std::move(key), /*with_cas=*/false);
}

sim::Task<Expected<memcache::Value>> McClient::gets_at(std::size_t server,
                                                       std::string key) {
  ++stats_.gets;
  co_await rpc_.fabric().node(self_).cpu().use(params_.per_key_cpu);
  co_return co_await fetch_one(server, std::move(key), /*with_cas=*/true);
}

sim::Task<Expected<void>> McClient::cas_at(std::size_t server, std::string key,
                                           Buffer data, std::uint64_t cas_id,
                                           std::uint32_t flags) {
  ++stats_.sets;
  ByteBuf request = memcache::encode_cas(key, flags, 0, data, cas_id);
  auto resp = co_await call(server, std::move(request), OpKind::kMutation,
                            ReplyShape::kLine);
  if (!resp) co_return resp.error();
  auto parsed = memcache::parse_cas_response(*resp);
  if (!parsed) co_return parsed.error();
  switch (*parsed) {
    case memcache::CasReply::kStored:
      co_return Expected<void>{};
    case memcache::CasReply::kExists:
      co_return Errc::kBusy;
    case memcache::CasReply::kNotFound:
      co_return Errc::kNoEnt;
  }
  co_return Errc::kProto;
}

sim::Task<Expected<void>> McClient::del_at(std::size_t server,
                                           std::string key) {
  ++stats_.deletes;
  ByteBuf request = memcache::encode_delete(key);
  auto resp = co_await call(server, std::move(request), OpKind::kDelete,
                            ReplyShape::kLine);
  if (!resp) co_return resp.error();
  auto parsed = memcache::parse_delete_response(*resp);
  if (!parsed) co_return parsed.error();
  co_return Expected<void>{};  // DELETED and NOT_FOUND both fine for purges
}

}  // namespace imca::mcclient
