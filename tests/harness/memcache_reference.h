// Reference memcached implementation for the property tests: the storage
// engine and text codec as they were before the single-pass rewrite, so the
// shipped ones can be checked against them. Two behaviours carry the fixes
// the rewrite made, so that the references agree with the intended result:
// a byte count that would wrap is refused, and CLIENT_ERROR parses as
// StoreReply::kClientError. Both cover the same commands, the ones IMCa
// sends (get, gets, set, add, cas, delete, flush_all clean); any other line
// gets ERROR from both.
//
//   * ListLruCache — the McCache whose per-class LRU is a std::list of key
//     views and whose items carry their own key copy. Same semantics, stats
//     and eviction order the shipped cache must keep.
//   * the codec — a Scanner that locates every line with Buffer::find from
//     the front of the segment chain, split_ws token vectors, snprintf
//     headers, count_request_keys as a separate parse, and a map-building
//     parse_get_response. Same wire bytes, replies, key counts and copy
//     ledger (bytes_copied, view_slices) the shipped codec must keep.
//
// Header-only and test-only: nothing under src/ includes it.
#pragma once

#include <cassert>
#include <charconv>
#include <cstdio>
#include <list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "memcache/slab.h"

namespace imca::memcache::reference {

class ListLruCache {
 public:
  explicit ListLruCache(std::uint64_t memory_limit) : slabs_(memory_limit) {}

  ListLruCache(const ListLruCache&) = delete;
  ListLruCache& operator=(const ListLruCache&) = delete;

  Expected<void> set(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data, SimTime now) {
    ++stats_.cmd_set;
    return store(key, flags, expire_at, std::move(data), now);
  }

  Expected<void> add(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data, SimTime now) {
    ++stats_.cmd_set;
    if (live(key, now)) return Errc::kNotStored;
    return store(key, flags, expire_at, std::move(data), now);
  }

  Expected<Value> get(std::string_view key, SimTime now) {
    ++stats_.cmd_get;
    if (!live(key, now)) {
      ++stats_.get_misses;
      return Errc::kNoEnt;
    }
    auto it = items_.find(std::string(key));
    Item& item = it->second;
    auto& lru = lru_[item.slab_class];
    lru.splice(lru.begin(), lru, item.lru_pos);
    ++stats_.get_hits;
    return Value{item.flags, item.data, item.cas};
  }

  Expected<void> cas(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data,
                     std::uint64_t expected_cas, SimTime now) {
    ++stats_.cmd_set;
    if (!live(key, now)) return Errc::kNoEnt;
    const Item& item = items_.find(std::string(key))->second;
    if (item.cas != expected_cas) return Errc::kBusy;
    return store(key, flags, expire_at, std::move(data), now);
  }

  Expected<void> del(std::string_view key) {
    auto it = items_.find(std::string(key));
    if (it == items_.end()) return Errc::kNoEnt;
    erase(it, false, false);
    return {};
  }

  void flush_all() {
    while (!items_.empty()) erase(items_.begin(), false, false);
  }

  void flush_clean(std::uint32_t keep_mask = kWbDirtyFlag) {
    for (auto it = items_.begin(); it != items_.end();) {
      if (it->second.flags & keep_mask) {
        ++it;
      } else {
        erase(it++, false, false);
      }
    }
  }

  const CacheStats& stats() const noexcept { return stats_; }
  const SlabAllocator& slabs() const noexcept { return slabs_; }
  std::size_t item_count() const noexcept { return items_.size(); }

 private:
  struct Item {
    std::string key;
    std::uint32_t flags = 0;
    SimTime expire_at = 0;
    Buffer data;
    std::uint32_t slab_class = 0;
    std::uint64_t cas = 0;
    std::list<std::string_view>::iterator lru_pos;
  };
  using ItemMap = std::unordered_map<std::string, Item>;

  static std::uint64_t total_size(std::string_view key, std::uint64_t len) {
    return key.size() + len + kItemOverhead;
  }

  bool live(std::string_view key, SimTime now) {
    auto it = items_.find(std::string(key));
    if (it == items_.end()) return false;
    if (it->second.expire_at != 0 && it->second.expire_at <= now) {
      erase(it, /*evicted=*/false, /*expired=*/true);
      return false;
    }
    return true;
  }

  void erase(ItemMap::iterator it, bool evicted, bool expired) {
    Item& item = it->second;
    lru_[item.slab_class].erase(item.lru_pos);
    slabs_.free(item.slab_class);
    stats_.bytes -= total_size(item.key, item.data.size());
    --stats_.curr_items;
    if (evicted) ++stats_.evictions;
    if (expired) ++stats_.expired_unfetched;
    items_.erase(it);
  }

  Expected<void> claim_chunk(std::uint32_t cls) {
    if (lru_.size() <= cls) lru_.resize(cls + 1);
    auto r = slabs_.alloc(cls);
    if (r) return {};
    if (r.error() != Errc::kNoSpc) return r.error();
    auto& lru = lru_[cls];
    if (lru.empty()) return Errc::kNoSpc;
    auto victim = items_.find(std::string(lru.back()));
    assert(victim != items_.end());
    erase(victim, /*evicted=*/true, /*expired=*/false);
    return slabs_.alloc(cls);
  }

  Expected<void> store(std::string_view key, std::uint32_t flags,
                       SimTime expire_at, Buffer data, SimTime) {
    if (key.size() > kMaxKeyLen) return Errc::kKeyTooLong;
    auto cls = slabs_.class_for(total_size(key, data.size()));
    if (!cls) return cls.error();
    if (auto it = items_.find(std::string(key)); it != items_.end()) {
      erase(it, false, false);
    }
    if (auto c = claim_chunk(*cls); !c) return c.error();
    auto [it, inserted] = items_.try_emplace(std::string(key));
    assert(inserted);
    Item& item = it->second;
    item.key = it->first;
    item.flags = flags;
    item.expire_at = expire_at;
    item.data = std::move(data);
    item.slab_class = *cls;
    item.cas = next_cas_++;
    lru_[*cls].push_front(std::string_view(it->first));
    item.lru_pos = lru_[*cls].begin();
    stats_.bytes += total_size(key, item.data.size());
    ++stats_.curr_items;
    return {};
  }

  SlabAllocator slabs_;
  std::uint64_t next_cas_ = 1;
  ItemMap items_;
  std::vector<std::list<std::string_view>> lru_;
  CacheStats stats_;
};

// --- the codec ---

namespace codec_detail {

inline constexpr std::string_view kCrlf = "\r\n";

// Locates each line with Buffer::find from the front of the chain, borrows
// it when Buffer::contiguous says it lies in one view, else stages it with
// Buffer::copy_to (a counted copy); blocks are Buffer::slice calls.
class Scanner {
 public:
  explicit Scanner(const Buffer& buf) : buf_(buf) {}

  Expected<std::string_view> line() {
    const auto pos = buf_.find(kCrlf, cursor_);
    if (pos == Buffer::npos) return Errc::kProto;
    const std::size_t len = pos - cursor_;
    std::string_view out;
    if (const auto flat = buf_.contiguous(cursor_, len); flat.size() == len) {
      out = {reinterpret_cast<const char*>(flat.data()), len};
    } else {
      scratch_.resize(len);
      buf_.copy_to(cursor_,
                   {reinterpret_cast<std::byte*>(scratch_.data()), len});
      out = scratch_;
    }
    cursor_ = pos + kCrlf.size();
    return out;
  }

  // As it was, except that a byte count within 2 of 2^64 is refused up
  // front: the original `n + 2` bound wrapped there (the bug the shipped
  // scanner fixes), and the reference must stay memory-safe.
  Expected<Buffer> block(std::size_t n) {
    if (n > buf_.size()) return Errc::kProto;
    if (buf_.size() - cursor_ < n + kCrlf.size()) return Errc::kProto;
    if (buf_.at(cursor_ + n) != std::byte{'\r'} ||
        buf_.at(cursor_ + n + 1) != std::byte{'\n'}) {
      return Errc::kProto;
    }
    Buffer out = buf_.slice(cursor_, n);
    cursor_ += n + kCrlf.size();
    return out;
  }

 private:
  const Buffer& buf_;
  std::string scratch_;
  std::size_t cursor_ = 0;
};

inline std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == ' ') ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

template <typename T>
Expected<T> parse_num(std::string_view s) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return Errc::kProto;
  return v;
}

inline void put_line(ByteBuf& out, std::string_view s) {
  out.put_raw(s);
  out.put_raw(kCrlf);
}

inline const char* verb_name(StoreVerb v) {
  switch (v) {
    case StoreVerb::kSet: return "set";
    case StoreVerb::kAdd: return "add";
  }
  return "?";
}

inline ByteBuf error_reply() {
  ByteBuf out;
  put_line(out, "ERROR");
  return out;
}

}  // namespace codec_detail

// --- encoders ---

inline ByteBuf encode_get(std::span<const std::string> keys,
                          bool with_cas = false) {
  ByteBuf out;
  std::string line = with_cas ? "gets" : "get";
  for (const auto& k : keys) {
    line += ' ';
    line += k;
  }
  codec_detail::put_line(out, line);
  return out;
}

inline ByteBuf encode_store(StoreVerb verb, std::string_view key,
                            std::uint32_t flags, std::uint32_t exptime_s,
                            const Buffer& data) {
  ByteBuf out;
  char head[320];
  std::snprintf(head, sizeof head, "%s %.*s %u %u %zu",
                codec_detail::verb_name(verb), static_cast<int>(key.size()),
                key.data(), flags, exptime_s, data.size());
  codec_detail::put_line(out, head);
  out.put_buffer(data);
  out.put_raw(codec_detail::kCrlf);
  return out;
}

inline ByteBuf encode_cas(std::string_view key, std::uint32_t flags,
                          std::uint32_t exptime_s, const Buffer& data,
                          std::uint64_t cas_id) {
  ByteBuf out;
  char head[360];
  std::snprintf(head, sizeof head, "cas %.*s %u %u %zu %llu",
                static_cast<int>(key.size()), key.data(), flags, exptime_s,
                data.size(), static_cast<unsigned long long>(cas_id));
  codec_detail::put_line(out, head);
  out.put_buffer(data);
  out.put_raw(codec_detail::kCrlf);
  return out;
}

inline ByteBuf encode_delete(std::string_view key) {
  ByteBuf out;
  codec_detail::put_line(out, std::string("delete ") + std::string(key));
  return out;
}

// --- client-side parsers ---

inline Expected<GetResult> parse_get_response(ByteBuf& in) {
  using namespace codec_detail;
  Scanner sc(in.buffer());
  GetResult result;
  while (true) {
    auto line = sc.line();
    if (!line) return line.error();
    if (*line == "END") return result;
    auto tok = split_ws(*line);
    if ((tok.size() != 4 && tok.size() != 5) || tok[0] != "VALUE") {
      return Errc::kProto;
    }
    auto flags = parse_num<std::uint32_t>(tok[2]);
    auto nbytes = parse_num<std::size_t>(tok[3]);
    if (!flags || !nbytes) return Errc::kProto;
    Value v;
    if (tok.size() == 5) {
      auto cas_id = parse_num<std::uint64_t>(tok[4]);
      if (!cas_id) return Errc::kProto;
      v.cas = *cas_id;
    }
    auto data = sc.block(*nbytes);
    if (!data) return data.error();
    v.flags = *flags;
    v.data = std::move(*data);
    result.emplace(std::string(tok[1]), std::move(v));
  }
}

// The store reply as it was parsed, with CLIENT_ERROR mapped the way the
// shipped parser now maps it (it used to fall through to kProto).
inline Expected<StoreReply> parse_store_response(ByteBuf& in) {
  codec_detail::Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return StoreReply::kStored;
  if (*line == "NOT_STORED") return StoreReply::kNotStored;
  if (line->starts_with("SERVER_ERROR")) return StoreReply::kServerError;
  if (line->starts_with("CLIENT_ERROR")) return StoreReply::kClientError;
  return Errc::kProto;
}

inline Expected<CasReply> parse_cas_response(ByteBuf& in) {
  codec_detail::Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return CasReply::kStored;
  if (*line == "EXISTS") return CasReply::kExists;
  if (*line == "NOT_FOUND") return CasReply::kNotFound;
  return Errc::kProto;
}

inline Expected<DeleteReply> parse_delete_response(ByteBuf& in) {
  codec_detail::Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "DELETED") return DeleteReply::kDeleted;
  if (*line == "NOT_FOUND") return DeleteReply::kNotFound;
  return Errc::kProto;
}

// --- the daemon side ---

inline std::size_t count_request_keys(const ByteBuf& request) {
  using namespace codec_detail;
  Scanner sc(request.buffer());
  auto first = sc.line();
  if (!first) return 1;
  const auto tok = split_ws(*first);
  if (tok.size() >= 2 && (tok[0] == "get" || tok[0] == "gets")) {
    return tok.size() - 1;
  }
  return 1;
}

template <typename Cache>
ByteBuf handle_request(Cache& cache, ByteBuf request, SimTime now) {
  using namespace codec_detail;
  Scanner sc(request.buffer());
  auto first = sc.line();
  if (!first) return error_reply();
  const auto tok = split_ws(*first);
  if (tok.empty()) return error_reply();
  const std::string_view cmd = tok[0];
  const auto expiry = [now](std::uint32_t s) -> SimTime {
    return s == 0 ? 0 : now + static_cast<SimTime>(s) * kSecond;
  };

  if (cmd == "get" || cmd == "gets") {
    if (tok.size() < 2) return error_reply();
    ByteBuf out;
    for (std::size_t i = 1; i < tok.size(); ++i) {
      auto v = cache.get(tok[i], now);
      if (!v) continue;
      char head[360];
      if (cmd == "gets") {
        std::snprintf(head, sizeof head, "VALUE %.*s %u %zu %llu",
                      static_cast<int>(tok[i].size()), tok[i].data(),
                      v->flags, v->data.size(),
                      static_cast<unsigned long long>(v->cas));
      } else {
        std::snprintf(head, sizeof head, "VALUE %.*s %u %zu",
                      static_cast<int>(tok[i].size()), tok[i].data(),
                      v->flags, v->data.size());
      }
      put_line(out, head);
      out.put_buffer(v->data);
      out.put_raw(kCrlf);
    }
    put_line(out, "END");
    return out;
  }
  if (cmd == "cas") {
    if (tok.size() != 6) return error_reply();
    auto flags = parse_num<std::uint32_t>(tok[2]);
    auto exptime = parse_num<std::uint32_t>(tok[3]);
    auto nbytes = parse_num<std::size_t>(tok[4]);
    auto cas_id = parse_num<std::uint64_t>(tok[5]);
    if (!flags || !exptime || !nbytes || !cas_id) return error_reply();
    auto data = sc.block(*nbytes);
    if (!data) return error_reply();
    auto r = cache.cas(tok[1], *flags, expiry(*exptime), std::move(*data),
                       *cas_id, now);
    ByteBuf out;
    if (r) {
      put_line(out, "STORED");
    } else if (r.error() == Errc::kBusy) {
      put_line(out, "EXISTS");
    } else if (r.error() == Errc::kNoEnt) {
      put_line(out, "NOT_FOUND");
    } else {
      put_line(out, "SERVER_ERROR out of memory storing object");
    }
    return out;
  }
  if (cmd == "set" || cmd == "add") {
    if (tok.size() != 5) return error_reply();
    auto flags = parse_num<std::uint32_t>(tok[2]);
    auto exptime = parse_num<std::uint32_t>(tok[3]);
    auto nbytes = parse_num<std::size_t>(tok[4]);
    if (!flags || !exptime || !nbytes) return error_reply();
    auto data = sc.block(*nbytes);
    if (!data) return error_reply();
    const SimTime expire_at = expiry(*exptime);
    Expected<void> r = Errc::kInval;
    if (cmd == "set") {
      r = cache.set(tok[1], *flags, expire_at, std::move(*data), now);
    } else {
      r = cache.add(tok[1], *flags, expire_at, std::move(*data), now);
    }
    ByteBuf out;
    if (r) {
      put_line(out, "STORED");
    } else if (r.error() == Errc::kNotStored) {
      put_line(out, "NOT_STORED");
    } else if (r.error() == Errc::kTooBig) {
      put_line(out, "SERVER_ERROR object too large for cache");
    } else if (r.error() == Errc::kKeyTooLong) {
      put_line(out, "CLIENT_ERROR bad command line format");
    } else {
      put_line(out, "SERVER_ERROR out of memory storing object");
    }
    return out;
  }
  if (cmd == "delete") {
    if (tok.size() != 2) return error_reply();
    ByteBuf out;
    put_line(out, cache.del(tok[1]) ? "DELETED" : "NOT_FOUND");
    return out;
  }
  if (cmd == "flush_all" && tok.size() == 2 && tok[1] == "clean") {
    cache.flush_clean();
    ByteBuf out;
    put_line(out, "OK");
    return out;
  }
  return error_reply();
}

}  // namespace imca::memcache::reference
