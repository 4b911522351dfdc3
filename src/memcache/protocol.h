// The memcached ASCII protocol — real encode/parse of the wire text.
//
// What the simulated NICs carry between libmemcache clients and daemons is
// the actual protocol byte stream ("set <key> <flags> <exptime> <bytes>\r\n"
// followed by a binary-safe data block, "VALUE ..." responses, "END\r\n"),
// so message sizes, parsing behaviour and malformed-input handling are the
// real thing, not placeholders.
//
// The codec covers the commands McClient sends: get (multi-key), gets, set,
// add, cas, delete and "flush_all clean". The daemon answers any other line
// with "ERROR\r\n", as memcached does for a command it does not know.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/errc.h"
#include "common/expected.h"
#include "memcache/cache.h"

namespace imca::memcache {

enum class StoreVerb { kSet, kAdd };

// --- client-side request encoding ---

ByteBuf encode_get(std::span<const std::string> keys);
// gets: like get but the VALUE lines carry each item's cas id.
ByteBuf encode_gets(std::span<const std::string> keys);
// The data block is spliced into the request without copying.
ByteBuf encode_store(StoreVerb verb, std::string_view key, std::uint32_t flags,
                     std::uint32_t exptime_s, const Buffer& data);
// cas: store only if the item's cas id still equals `cas_id`.
ByteBuf encode_cas(std::string_view key, std::uint32_t flags,
                   std::uint32_t exptime_s, const Buffer& data,
                   std::uint64_t cas_id);
ByteBuf encode_delete(std::string_view key);
// flush_all clean: drop everything except write-back dirty items.
ByteBuf encode_flush_clean();

// --- client-side response parsing ---

// Values returned by a get, keyed by item key. Missing keys simply do not
// appear (the protocol's way of signalling a miss). Each Value's data is a
// zero-copy view over the reply's receive buffer.
using GetResult = std::map<std::string, Value>;
Expected<GetResult> parse_get_response(ByteBuf& in);

// The same parse, aligned with the request: `keys` are the keys the get
// asked for and slots[i] (empty on entry) receives keys[i]'s value. The
// daemon answers hits in request order, so each VALUE is matched by
// scanning forward from the previous match; one out of order falls back to
// the first slot holding its key, and a second VALUE for a filled slot is
// dropped (the first wins, as in the map form). Returns the number of slots
// filled; on a parse error every slot is left empty.
Expected<std::size_t> parse_get_response(ByteBuf& in,
                                         std::span<const std::string> keys,
                                         std::span<std::optional<Value>> slots);

// kClientError is the daemon rejecting the command line itself, which for a
// well-formed store means the key exceeds kMaxKeyLen.
enum class StoreReply { kStored, kNotStored, kServerError, kClientError };
Expected<StoreReply> parse_store_response(ByteBuf& in);

// cas outcomes: stored, lost the race (EXISTS), or the key vanished.
enum class CasReply { kStored, kExists, kNotFound };
Expected<CasReply> parse_cas_response(ByteBuf& in);

enum class DeleteReply { kDeleted, kNotFound };
Expected<DeleteReply> parse_delete_response(ByteBuf& in);

// --- server side ---

// Parse one request off `request`, execute it against `cache` and encode the
// response. `now` drives lazy expiration. Malformed input yields the
// protocol's "ERROR\r\n", never an exception. If `keys_touched` is given it
// receives the number of keys the request made the daemon touch, taken from
// the same parse: every key of a multi-get is hashed and LRU-bumped; every
// other request, malformed ones included, counts as one. The daemon's
// service-time model charges per key.
ByteBuf handle_request(McCache& cache, ByteBuf request, SimTime now,
                       std::size_t* keys_touched = nullptr);

}  // namespace imca::memcache
