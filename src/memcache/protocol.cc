#include "memcache/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <initializer_list>

namespace imca::memcache {
namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string_view verb_name(StoreVerb v) {
  switch (v) {
    case StoreVerb::kSet: return "set";
    case StoreVerb::kAdd: return "add";
  }
  return "?";
}

// One forward pass over the segment chain of a message: CRLF-terminated
// lines and exact-size binary blocks. The cursor is a (view, offset)
// position, so no call walks the views behind it again, and CR is found
// with memchr. Data blocks come back as zero-copy slices of the message's
// own segments. A line is borrowed in place when it lies inside one view and
// staged through a small scratch string (a counted copy) when it straddles
// a view boundary.
class Scanner {
 public:
  explicit Scanner(const Buffer& buf) : buf_(buf), views_(buf.views()) {}

  // Next line without its CRLF; kProto if no terminator remains. The view is
  // valid until the next line() call.
  Expected<std::string_view> line() {
    std::size_t base = pos_ - at_.offset;  // logical offset of view `vi`
    for (std::size_t vi = at_.view, from = at_.offset; vi < views_.size();
         base += views_[vi].size(), ++vi, from = 0) {
      const auto v = views_[vi].bytes();
      const auto* text = reinterpret_cast<const char*>(v.data());
      while (from < v.size()) {
        const auto* cr = static_cast<const char*>(
            std::memchr(text + from, '\r', v.size() - from));
        if (cr == nullptr) break;
        const auto i = static_cast<std::size_t>(cr - text);
        if (lf_after({vi, i})) return take_line(base + i - pos_);
        from = i + 1;
      }
    }
    return Errc::kProto;
  }

  // Exactly `n` bytes followed by CRLF (a data block). The bound is checked
  // without forming n + 2, which wraps for a byte count near 2^64.
  Expected<Buffer> block(std::size_t n) {
    const std::size_t left = buf_.size() - pos_;
    if (n > left || left - n < kCrlf.size()) return Errc::kProto;
    const Buffer::Position end = skip(at_, n);
    if (views_[end.view].bytes()[end.offset] != std::byte{'\r'} ||
        !lf_after(end)) {
      return Errc::kProto;
    }
    Buffer out = buf_.slice(at_, n);
    at_ = skip(end, kCrlf.size());
    pos_ += n + kCrlf.size();
    return out;
  }

 private:
  // `len` bytes from the cursor, then CRLF. Views are never empty (Buffer
  // drops empty views), so the cursor is always inside a view or at the end.
  std::string_view take_line(std::size_t len) {
    std::string_view out;
    const auto first = views_[at_.view].bytes();
    if (at_.offset + len <= first.size()) {
      out = {reinterpret_cast<const char*>(first.data()) + at_.offset, len};
    } else {
      scratch_.resize(len);
      buf_.copy_to(pos_, {reinterpret_cast<std::byte*>(scratch_.data()), len});
      out = scratch_;
    }
    at_ = skip(at_, len + kCrlf.size());
    pos_ += len + kCrlf.size();
    return out;
  }

  // True if a byte follows position `p` (a byte of the buffer) and is LF.
  bool lf_after(Buffer::Position p) const {
    if (p.offset + 1 < views_[p.view].size()) {
      return views_[p.view].bytes()[p.offset + 1] == std::byte{'\n'};
    }
    return p.view + 1 < views_.size() &&
           views_[p.view + 1].bytes()[0] == std::byte{'\n'};
  }

  // `p` moved forward by `n` bytes, normalized so that it lies inside a view
  // or is the end position {views_.size(), 0}.
  Buffer::Position skip(Buffer::Position p, std::size_t n) const {
    while (p.view < views_.size() &&
           p.offset + n >= views_[p.view].size()) {
      n -= views_[p.view].size() - p.offset;
      ++p.view;
      p.offset = 0;
    }
    p.offset += n;
    return p;
  }

  const Buffer& buf_;
  const std::span<const BufView> views_;
  Buffer::Position at_;
  std::size_t pos_ = 0;  // logical offset of at_
  std::string scratch_;
};

// Pops the next space-delimited token off the front of `s`; empty when none
// remain. Runs of spaces separate like one.
std::string_view next_token(std::string_view& s) {
  const std::size_t b = s.find_first_not_of(' ');
  if (b == std::string_view::npos) {
    s = {};
    return {};
  }
  const std::size_t e = std::min(s.find(' ', b), s.size());
  const std::string_view tok = s.substr(b, e - b);
  s.remove_prefix(e);
  return tok;
}

// The tokens of one line as views into it, in a fixed array. `count` is the
// line's true token count, so a line with more tokens than the array holds
// still fails every arity check. Multi-get keys, the one unbounded list, are
// walked with next_token instead.
struct Tokens {
  static constexpr std::size_t kMax = 6;  // cas <key> <flg> <exp> <n> <id>

  explicit Tokens(std::string_view line) {
    for (auto t = next_token(line); !t.empty(); t = next_token(line)) {
      if (count < kMax) tok[count] = t;
      ++count;
    }
  }
  std::string_view operator[](std::size_t i) const { return tok[i]; }

  std::array<std::string_view, kMax> tok{};
  std::size_t count = 0;
};

template <typename T>
Expected<T> parse_num(std::string_view s) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return Errc::kProto;
  return v;
}

// Appends "<word> <key>[ <n>...]\r\n" with one put_raw: every header line of
// the protocol has this shape. Numbers are formatted with std::to_chars.
void put_header(ByteBuf& out, std::string_view word, std::string_view key,
                std::initializer_list<std::uint64_t> nums = {}) {
  constexpr std::size_t kNumMax = 1 + 20;  // ' ' + digits of a uint64
  const std::size_t cap = word.size() + 1 + key.size() +
                          nums.size() * kNumMax + kCrlf.size();
  std::array<char, 384> stack;
  std::string heap;
  char* buf = stack.data();
  if (cap > stack.size()) {
    heap.resize(cap);
    buf = heap.data();
  }
  char* p = std::copy(word.begin(), word.end(), buf);
  *p++ = ' ';
  p = std::copy(key.begin(), key.end(), p);
  for (const std::uint64_t v : nums) {
    *p++ = ' ';
    p = std::to_chars(p, buf + cap, v).ptr;
  }
  p = std::copy(kCrlf.begin(), kCrlf.end(), p);
  out.put_raw(std::string_view(buf, static_cast<std::size_t>(p - buf)));
}

// A message of one constant line; `text` ends with its CRLF.
ByteBuf fixed_line(std::string_view text) {
  ByteBuf out;
  out.put_raw(text);
  return out;
}

ByteBuf encode_multikey(std::string_view verb,
                        std::span<const std::string> keys) {
  std::size_t len = verb.size() + kCrlf.size();
  for (const auto& k : keys) len += 1 + k.size();
  ByteBuf out;
  out.reserve(len);
  out.put_raw(verb);
  for (const auto& k : keys) {
    out.put_raw(" ");
    out.put_raw(k);
  }
  out.put_raw(kCrlf);
  return out;
}

// Walks a get/gets reply up to END, handing each VALUE's key (valid only
// during the call) and value to `on_value`. The one parser behind both forms
// of parse_get_response.
template <typename OnValue>
Expected<void> scan_values(const Buffer& in, OnValue&& on_value) {
  Scanner sc(in);
  while (true) {
    auto line = sc.line();
    if (!line) return line.error();
    if (*line == "END") return {};
    const Tokens tok(*line);
    if ((tok.count != 4 && tok.count != 5) || tok[0] != "VALUE") {
      return Errc::kProto;
    }
    auto flags = parse_num<std::uint32_t>(tok[2]);
    auto nbytes = parse_num<std::size_t>(tok[3]);
    if (!flags || !nbytes) return Errc::kProto;
    Value v;
    if (tok.count == 5) {  // gets carries the cas id
      auto cas_id = parse_num<std::uint64_t>(tok[4]);
      if (!cas_id) return Errc::kProto;
      v.cas = *cas_id;
    }
    auto data = sc.block(*nbytes);
    if (!data) return data.error();
    v.flags = *flags;
    v.data = std::move(*data);
    on_value(tok[1], std::move(v));
  }
}

}  // namespace

ByteBuf encode_get(std::span<const std::string> keys) {
  return encode_multikey("get", keys);
}

ByteBuf encode_gets(std::span<const std::string> keys) {
  return encode_multikey("gets", keys);
}

ByteBuf encode_store(StoreVerb verb, std::string_view key, std::uint32_t flags,
                     std::uint32_t exptime_s, const Buffer& data) {
  ByteBuf out;
  put_header(out, verb_name(verb), key, {flags, exptime_s, data.size()});
  out.put_buffer(data);
  out.put_raw(kCrlf);
  return out;
}

ByteBuf encode_cas(std::string_view key, std::uint32_t flags,
                   std::uint32_t exptime_s, const Buffer& data,
                   std::uint64_t cas_id) {
  ByteBuf out;
  put_header(out, "cas", key, {flags, exptime_s, data.size(), cas_id});
  out.put_buffer(data);
  out.put_raw(kCrlf);
  return out;
}

ByteBuf encode_delete(std::string_view key) {
  ByteBuf out;
  put_header(out, "delete", key);
  return out;
}

ByteBuf encode_flush_clean() { return fixed_line("flush_all clean\r\n"); }

Expected<GetResult> parse_get_response(ByteBuf& in) {
  GetResult result;
  auto r = scan_values(in.buffer(), [&](std::string_view key, Value&& v) {
    result.emplace(std::string(key), std::move(v));
  });
  if (!r) return r.error();
  return result;
}

Expected<std::size_t> parse_get_response(
    ByteBuf& in, std::span<const std::string> keys,
    std::span<std::optional<Value>> slots) {
  std::size_t next = 0;  // one past the previous match
  std::size_t filled = 0;
  auto r = scan_values(in.buffer(), [&](std::string_view key, Value&& v) {
    std::size_t j = next;
    while (j < keys.size() && keys[j] != key) ++j;
    if (j < keys.size()) {
      next = j + 1;
    } else {  // out of request order: the first slot holding this key
      j = 0;
      while (j < next && keys[j] != key) ++j;
      if (j == next) return;  // a key the request did not ask for
    }
    if (slots[j]) return;
    slots[j].emplace(std::move(v));
    ++filled;
  });
  if (!r) {
    std::fill(slots.begin(), slots.end(), std::nullopt);
    return r.error();
  }
  return filled;
}

Expected<StoreReply> parse_store_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return StoreReply::kStored;
  if (*line == "NOT_STORED") return StoreReply::kNotStored;
  if (line->starts_with("SERVER_ERROR")) return StoreReply::kServerError;
  if (line->starts_with("CLIENT_ERROR")) return StoreReply::kClientError;
  return Errc::kProto;
}

Expected<CasReply> parse_cas_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "STORED") return CasReply::kStored;
  if (*line == "EXISTS") return CasReply::kExists;
  if (*line == "NOT_FOUND") return CasReply::kNotFound;
  return Errc::kProto;
}

Expected<DeleteReply> parse_delete_response(ByteBuf& in) {
  Scanner sc(in.buffer());
  auto line = sc.line();
  if (!line) return line.error();
  if (*line == "DELETED") return DeleteReply::kDeleted;
  if (*line == "NOT_FOUND") return DeleteReply::kNotFound;
  return Errc::kProto;
}

namespace {

ByteBuf error_reply() { return fixed_line("ERROR\r\n"); }

// `keys` is the request line after the verb. Every key is looked up in the
// same walk that counts them.
ByteBuf do_get(McCache& cache, std::string_view keys, SimTime now,
               bool with_cas, std::size_t* keys_touched) {
  ByteBuf out;
  std::size_t n = 0;
  for (auto key = next_token(keys); !key.empty(); key = next_token(keys)) {
    ++n;
    const Value* v = cache.get_ref(key, now);
    if (v == nullptr) continue;  // miss: the key simply isn't echoed back
    if (with_cas) {
      put_header(out, "VALUE", key, {v->flags, v->data.size(), v->cas});
    } else {
      put_header(out, "VALUE", key, {v->flags, v->data.size()});
    }
    out.put_buffer(v->data);
    out.put_raw(kCrlf);
  }
  if (n == 0) return error_reply();
  if (keys_touched != nullptr) *keys_touched = n;
  out.put_raw("END\r\n");
  return out;
}

SimTime expiry(std::uint32_t exptime_s, SimTime now) {
  return exptime_s == 0 ? 0 : now + static_cast<SimTime>(exptime_s) * kSecond;
}

ByteBuf do_cas(McCache& cache, const Tokens& tok, Scanner& sc, SimTime now) {
  if (tok.count != 6) return error_reply();
  auto flags = parse_num<std::uint32_t>(tok[2]);
  auto exptime = parse_num<std::uint32_t>(tok[3]);
  auto nbytes = parse_num<std::size_t>(tok[4]);
  auto cas_id = parse_num<std::uint64_t>(tok[5]);
  if (!flags || !exptime || !nbytes || !cas_id) return error_reply();
  auto data = sc.block(*nbytes);
  if (!data) return error_reply();
  auto r = cache.cas(tok[1], *flags, expiry(*exptime, now), std::move(*data),
                     *cas_id, now);
  if (r) return fixed_line("STORED\r\n");
  if (r.error() == Errc::kBusy) return fixed_line("EXISTS\r\n");
  if (r.error() == Errc::kNoEnt) return fixed_line("NOT_FOUND\r\n");
  return fixed_line("SERVER_ERROR out of memory storing object\r\n");
}

ByteBuf do_store(McCache& cache, StoreVerb verb, const Tokens& tok,
                 Scanner& sc, SimTime now) {
  if (tok.count != 5) return error_reply();
  auto flags = parse_num<std::uint32_t>(tok[2]);
  auto exptime = parse_num<std::uint32_t>(tok[3]);
  auto nbytes = parse_num<std::size_t>(tok[4]);
  if (!flags || !exptime || !nbytes) return error_reply();
  auto data = sc.block(*nbytes);
  if (!data) return error_reply();
  const SimTime expire_at = expiry(*exptime, now);

  const Expected<void> r =
      verb == StoreVerb::kSet
          ? cache.set(tok[1], *flags, expire_at, std::move(*data), now)
          : cache.add(tok[1], *flags, expire_at, std::move(*data), now);
  if (r) return fixed_line("STORED\r\n");
  switch (r.error()) {
    case Errc::kNotStored: return fixed_line("NOT_STORED\r\n");
    case Errc::kTooBig:
      return fixed_line("SERVER_ERROR object too large for cache\r\n");
    case Errc::kKeyTooLong:
      return fixed_line("CLIENT_ERROR bad command line format\r\n");
    default:
      return fixed_line("SERVER_ERROR out of memory storing object\r\n");
  }
}

ByteBuf do_delete(McCache& cache, const Tokens& tok) {
  if (tok.count != 2) return error_reply();
  return fixed_line(cache.del(tok[1]) ? "DELETED\r\n" : "NOT_FOUND\r\n");
}

}  // namespace

ByteBuf handle_request(McCache& cache, ByteBuf request, SimTime now,
                       std::size_t* keys_touched) {
  if (keys_touched != nullptr) *keys_touched = 1;
  Scanner sc(request.buffer());
  auto first = sc.line();
  if (!first) return error_reply();
  std::string_view rest = *first;
  const std::string_view cmd = next_token(rest);
  if (cmd == "get" || cmd == "gets") {
    return do_get(cache, rest, now, /*with_cas=*/cmd == "gets", keys_touched);
  }

  const Tokens tok(*first);
  if (cmd == "set") return do_store(cache, StoreVerb::kSet, tok, sc, now);
  if (cmd == "add") return do_store(cache, StoreVerb::kAdd, tok, sc, now);
  if (cmd == "cas") return do_cas(cache, tok, sc, now);
  if (cmd == "delete") return do_delete(cache, tok);
  if (cmd == "flush_all" && tok.count == 2 && tok[1] == "clean") {
    // The clean flush spares items flagged write-back dirty: the rejoin
    // purge must never destroy the only surviving replica of acked bytes.
    cache.flush_clean();
    return fixed_line("OK\r\n");
  }
  return error_reply();
}

}  // namespace imca::memcache
