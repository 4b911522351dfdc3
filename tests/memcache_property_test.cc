// Property tests for the memcached codec and storage engine, each checked
// against the implementation it replaced (tests/harness/memcache_reference.h):
//
//  * MemcacheWireProperty — randomized request and reply streams. Every
//    message is cut into segments several ways (whole, random cut points,
//    1-byte segments, every CR|LF pair split across two segments). Every
//    cut must give the unsegmented message's reply bytes, key count and
//    parse result (the slot-aligned get parse included), and the same copy
//    ledger deltas (bytes_copied, view_slices, segments_allocated) as the
//    reference split_ws + Buffer::find codec on that same cut. The encoders
//    must emit the reference's wire bytes.
//  * McCacheProperty — randomized op traces against a memory limit small
//    enough that several slab classes evict. After every op the intrusive-LRU
//    McCache must match the std::list-LRU reference: return values, get
//    bytes/flags/cas, CacheStats, item_count and slab accounting.
//
// Both are trace-based: a failing trace is shrunk (tests/harness/shrink.h)
// and printed with its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/rng.h"
#include "harness/memcache_reference.h"
#include "harness/shrink.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"

namespace imca::memcache {
namespace {

namespace ref = reference;

// --- shared helpers ---

struct Ledger {
  std::uint64_t copied = 0;
  std::uint64_t slices = 0;
  std::uint64_t segments = 0;

  static Ledger now() {
    const BufferStats& s = buffer_stats();
    return {s.bytes_copied, s.view_slices, s.segments_allocated};
  }
  Ledger since(const Ledger& before) const {
    return {copied - before.copied, slices - before.slices,
            segments - before.segments};
  }
  bool operator==(const Ledger&) const = default;
  std::string str() const {
    return "copied=" + std::to_string(copied) + " slices=" +
           std::to_string(slices) + " segments=" + std::to_string(segments);
  }
};

// Printable form of bytes: CR, LF and other non-graphic bytes as \xNN.
std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c >= 0x21 && c <= 0x7e && c != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned char>(c));
      out += hex;
    }
  }
  return out;
}

std::string describe(const Value& v) {
  return "{flags=" + std::to_string(v.flags) + " cas=" + std::to_string(v.cas) +
         " data=" + escape(to_string(v.data)) + "}";
}

template <typename T, typename Show>
std::string describe(const Expected<T>& r, Show&& show) {
  if (!r) return "error " + std::string(errc_name(r.error()));
  return show(*r);
}

std::string describe(const Expected<GetResult>& r) {
  return describe(r, [](const GetResult& m) {
    std::string out = "map";
    for (const auto& [k, v] : m) out += " " + k + "=" + describe(v);
    return out;
  });
}

std::string describe_slots(const Expected<std::size_t>& filled,
                           const std::vector<std::optional<Value>>& slots) {
  return describe(filled, [&](std::size_t n) {
    std::string out = "filled " + std::to_string(n) + ":";
    for (const auto& s : slots) {
      out += ' ';
      out += s ? describe(*s) : std::string("-");
    }
    return out;
  });
}

template <typename E>
std::string describe_enum(const Expected<E>& r) {
  return describe(
      r, [](E e) { return "reply " + std::to_string(static_cast<int>(e)); });
}

// --- segmentation ---

// `bytes` as one Segment per piece between the ascending offsets `cuts`.
Buffer segmented(std::string_view bytes, const std::vector<std::size_t>& cuts) {
  Buffer b;
  std::size_t from = 0;
  for (const std::size_t c : cuts) {
    b.append(Buffer::of_string(bytes.substr(from, c - from)));
    from = c;
  }
  b.append(Buffer::of_string(bytes.substr(from)));
  return b;
}

// The ways every message is cut. Entry 0 is the unsegmented message.
std::vector<std::vector<std::size_t>> cuttings(std::string_view bytes,
                                               std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = bytes.size();
  std::vector<std::vector<std::size_t>> out(4);
  if (n < 2) return out;
  const auto random_cuts = [&](std::vector<std::size_t>& cuts,
                               std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) cuts.push_back(rng.range(1, n - 1));
  };
  random_cuts(out[1], rng.range(1, 8));
  for (std::size_t i = 1; i < n; ++i) out[2].push_back(i);
  for (std::size_t i = 1; i < n; ++i) {
    if (bytes[i - 1] == '\r' && bytes[i] == '\n') out[3].push_back(i);
  }
  random_cuts(out[3], 2);
  for (auto& cuts : out) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  return out;
}

// --- wire traces ---

enum class Parse : std::uint8_t {
  kRequest,  // handled by a daemon
  kGet,      // get/gets reply
  kStore,
  kCas,
  kDelete,
};

struct WireOp {
  Parse parse = Parse::kRequest;
  std::string bytes;
  std::vector<std::string> keys;  // kGet: the keys the request asked for
  std::uint64_t cut_seed = 0;
  SimDuration advance = 0;        // kRequest: sim time passing first
};

std::string format_wire_op(const WireOp& op) {
  std::string out = "parse=" + std::to_string(static_cast<int>(op.parse)) +
                    " cut_seed=" + std::to_string(op.cut_seed) + " advance=" +
                    std::to_string(op.advance) + " bytes=" + escape(op.bytes);
  if (!op.keys.empty()) {
    out += " keys=";
    for (const auto& k : op.keys) out += k + ",";
  }
  return out;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  static constexpr char kAlphabet[] = "ab \r\n\r\n0123456789\0END\xff";
  std::string s(n, '\0');
  for (auto& c : s) c = kAlphabet[rng.below(sizeof kAlphabet - 1)];
  return s;
}

std::string payload(Rng& rng) {
  if (rng.chance(0.15)) return std::to_string(rng.below(100000));  // numeric
  const std::size_t n =
      rng.chance(0.05) ? rng.range(300, 2000) : rng.below(64);
  return random_bytes(rng, n);
}

constexpr const char* kDaemonKeys[] = {"k0",     "k1",     "k2",    "k3",
                                       "k4",     "k5",     "/f:0",  "/f:2048",
                                       "/g:0",   "/g:4096", "ctr",  "x"};

std::string daemon_key(Rng& rng) {
  if (rng.chance(0.02)) return std::string(kMaxKeyLen + 1, 'L');  // too long
  if (rng.chance(0.02)) return std::string(kMaxKeyLen, 'M');
  return kDaemonKeys[rng.below(std::size(kDaemonKeys))];
}

// Mutates one byte: flip, insert or delete.
void corrupt(Rng& rng, std::string& s) {
  if (s.empty()) return;
  const std::size_t at = rng.below(s.size());
  switch (rng.below(3)) {
    case 0: s[at] = random_bytes(rng, 1)[0]; break;
    case 1: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                     random_bytes(rng, 1)[0]);
      break;
    default: s.erase(at, 1); break;
  }
}

std::string request(Rng& rng) {
  static constexpr const char* kStoreVerbs[] = {"set", "add", "replace",
                                                "append", "prepend"};
  static constexpr const char* kMalformed[] = {
      "",
      "\r\n",
      "   \r\n",
      "bogus x\r\n",
      "get\r\n",
      "get \r\n",
      "get k1",
      "get k1\rk2\r\n",
      "get k1\nk2\r\n",
      "set k 0 0\r\n",
      "set k 0 0 5\r\nab\r\n",
      "set k 0 0 x\r\nabcde\r\n",
      "set k 0 0 18446744073709551614\r\nabc\r\n",
      "set k 0 0 18446744073709551615\r\nabc\r\n",
      "set k 0 0 18446744073709551616\r\nabc\r\n",
      "set k 0 0 3\r\nabcXY",
      "set k 0 0 3\r\nabc\r",
      "set k 0 0 1 2 3 4 5\r\nx\r\n",
      "cas k 0 0 1\r\nx\r\n",
      "cas k 0 0 1 abc\r\nx\r\n",
      "incr k\r\n",
      "decr k 1 2\r\n",
      "incr k x\r\n",
      "delete\r\n",
      "delete a b\r\n",
      "flush_all clean extra\r\n",
      "stats\r\nEXTRA",
  };
  const auto key = daemon_key(rng);
  std::string s;
  switch (rng.below(12)) {
    case 0:
    case 1:
    case 2: {  // get / gets, 1-64 keys, sometimes with extra spaces
      s = rng.chance(0.3) ? "gets" : "get";
      const std::size_t n =
          rng.chance(0.2) ? rng.range(2, 64) : rng.range(1, 6);
      for (std::size_t i = 0; i < n; ++i) {
        s += rng.chance(0.05) ? "  " : " ";
        s += daemon_key(rng);
      }
      if (rng.chance(0.05)) s += " ";
      s += "\r\n";
      break;
    }
    case 3:
    case 4:
    case 5: {
      const std::string data = payload(rng);
      const std::uint32_t flags =
          rng.chance(0.2) ? kWbDirtyFlag
                          : static_cast<std::uint32_t>(rng.below(4));
      const std::uint64_t exptime = rng.chance(0.2) ? rng.range(1, 3) : 0;
      s = std::string(kStoreVerbs[rng.below(std::size(kStoreVerbs))]) + " " +
          key + " " + std::to_string(flags) + " " + std::to_string(exptime) +
          " " + std::to_string(data.size()) + "\r\n" + data + "\r\n";
      break;
    }
    case 6: {
      const std::string data = payload(rng);
      s = "cas " + key + " 0 0 " + std::to_string(data.size()) + " " +
          std::to_string(rng.range(1, 40)) + "\r\n" + data + "\r\n";
      break;
    }
    case 7:
      s = "delete " + key + "\r\n";
      break;
    case 8: {
      const std::uint64_t delta =
          rng.chance(0.1) ? ~std::uint64_t{0} : rng.below(1000);
      s = std::string(rng.chance(0.5) ? "incr " : "decr ") + key + " " +
          std::to_string(delta) + "\r\n";
      break;
    }
    case 9:
      s = rng.chance(0.7) ? "stats\r\n"
          : rng.chance(0.5) ? "flush_all clean\r\n"
                            : "flush_all\r\n";
      break;
    case 10:
      s = kMalformed[rng.below(std::size(kMalformed))];
      break;
    default:
      s = request(rng);
      corrupt(rng, s);
      break;
  }
  return s;
}

// A get/gets reply to `keys`, usually well-formed, sometimes not.
std::string get_reply(Rng& rng, const std::vector<std::string>& keys) {
  const bool with_cas = rng.chance(0.3);
  std::string s;
  std::vector<std::string> answered;
  for (const auto& k : keys) {
    if (rng.chance(0.7)) answered.push_back(k);
  }
  if (answered.size() >= 2 && rng.chance(0.05)) {
    std::swap(answered.front(), answered.back());  // out of request order
  }
  if (!answered.empty() && rng.chance(0.05)) {
    answered.push_back(answered.front());  // a second VALUE for one key
  }
  if (rng.chance(0.05)) answered.push_back("unasked");
  for (const auto& k : answered) {
    const std::string data = payload(rng);
    s += "VALUE " + k + " " + std::to_string(rng.below(8)) + " " +
         std::to_string(data.size());
    if (with_cas) s += " " + std::to_string(rng.range(1, 1000));
    s += "\r\n" + data + "\r\n";
  }
  s += "END\r\n";
  switch (rng.below(14)) {
    case 0: corrupt(rng, s); break;
    case 1: s.resize(rng.below(s.size())); break;  // torn
    case 2: s += "JUNK\r\n"; break;                // ignored after END
    case 3: s = "VALUE k 0 18446744073709551614\r\nEND\r\n"; break;
    case 4: s = "VALUE k 0 3 1 2\r\nabc\r\nEND\r\n"; break;
    case 5: s = "VALUE k x 3\r\nabc\r\nEND\r\n"; break;
    default: break;
  }
  return s;
}

std::string line_reply(Rng& rng) {
  static constexpr const char* kLines[] = {
      "STORED",     "NOT_STORED", "EXISTS",   "NOT_FOUND",
      "DELETED",    "OK",         "ERROR",    "junk",
      "SERVER_ERROR object too large for cache",
      "SERVER_ERROR out of memory storing object",
      "CLIENT_ERROR bad command line format",
      "CLIENT_ERROR cannot increment or decrement non-numeric value",
      "18446744073709551615", "18446744073709551616", "12a", "0", "42",
  };
  std::string s = std::string(kLines[rng.below(std::size(kLines))]) + "\r\n";
  if (rng.chance(0.1)) s.resize(rng.below(s.size()));
  if (rng.chance(0.1)) corrupt(rng, s);
  return s;
}

std::vector<WireOp> generate_wire_ops(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<WireOp> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    WireOp op;
    op.cut_seed = rng.next();
    if (rng.chance(0.6)) {
      op.parse = Parse::kRequest;
      op.bytes = request(rng);
      op.advance = rng.chance(0.1) ? rng.range(1, 2000) * kMilli : 0;
    } else {
      op.parse = static_cast<Parse>(rng.range(1, 4));
      if (op.parse == Parse::kGet) {
        const std::size_t n =
            rng.chance(0.2) ? rng.range(2, 64) : rng.range(1, 6);
        for (std::size_t k = 0; k < n; ++k) {
          op.keys.push_back("key" + std::to_string(k * 7 + rng.below(7)));
        }
        op.bytes = get_reply(rng, op.keys);
      } else {
        op.bytes = line_reply(rng);
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

struct Failure {
  std::size_t op_index = 0;
  std::string detail;
};

// One message parsed on one cut: what the parse produced and what it cost.
struct Outcome {
  std::string result;
  Ledger ledger;
};

// Runs `parse` inside a ledger window; `show` describes its result after.
template <typename ParseFn, typename Show>
Outcome measured(ParseFn&& parse, Show&& show) {
  const Ledger before = Ledger::now();
  const auto result = parse();
  const Ledger cost = Ledger::now().since(before);
  return {show(result), cost};
}

const auto kShow = [](const auto& r) { return describe(r); };
const auto kShowEnum = [](const auto& r) { return describe_enum(r); };

// The reply parse `op.parse` run on `in`, by the shipped codec (`shipped`)
// or the reference; kGet also runs the slot-aligned parse.
std::vector<Outcome> parse_reply(const WireOp& op, const Buffer& in,
                                 bool shipped) {
  std::vector<Outcome> out;
  ByteBuf msg(in);
  switch (op.parse) {
    case Parse::kGet:
      out.push_back(measured(
          [&] {
            return shipped ? parse_get_response(msg)
                           : ref::parse_get_response(msg);
          },
          kShow));
      if (shipped) {
        ByteBuf again(in);
        std::vector<std::optional<Value>> slots(op.keys.size());
        out.push_back(measured(
            [&] { return parse_get_response(again, op.keys, slots); },
            [&](const Expected<std::size_t>& r) {
              return describe_slots(r, slots);
            }));
      }
      break;
    case Parse::kStore:
      out.push_back(measured(
          [&] {
            return shipped ? parse_store_response(msg)
                           : ref::parse_store_response(msg);
          },
          kShowEnum));
      break;
    case Parse::kCas:
      out.push_back(measured(
          [&] {
            return shipped ? parse_cas_response(msg)
                           : ref::parse_cas_response(msg);
          },
          kShowEnum));
      break;
    case Parse::kDelete:
      out.push_back(measured(
          [&] {
            return shipped ? parse_delete_response(msg)
                           : ref::parse_delete_response(msg);
          },
          kShowEnum));
      break;
    case Parse::kRequest:
      break;
  }
  return out;
}

// What the slot-aligned parse must give when the map parse gave `map`: each
// key's value where the request lists it first (request keys here are
// distinct, so that is every key the map holds).
std::string slots_from_map(const Expected<GetResult>& map,
                           const std::vector<std::string>& keys) {
  std::vector<std::optional<Value>> slots(keys.size());
  Expected<std::size_t> filled = std::size_t{0};
  if (!map) {
    filled = map.error();
  } else {
    std::size_t n = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (auto it = map->find(keys[i]); it != map->end()) {
        slots[i] = it->second;
        ++n;
      }
    }
    filled = n;
  }
  return describe_slots(filled, slots);
}

constexpr std::uint64_t kWireCacheLimit = 64 * kMiB;

// What a wire trace exercised, so a generator drift that stops covering a
// case fails loudly instead of passing vacuously.
struct WireCoverage {
  std::size_t staged_lines = 0;   // reply parses that staged a straddling line
  std::size_t value_replies = 0;  // daemon replies carrying a VALUE
  std::size_t error_replies = 0;  // daemon replies "ERROR"
  std::size_t multi_key_gets = 0;
  std::size_t parsed_hits = 0;    // get replies parsed with >= 1 value
  std::size_t parse_errors = 0;   // reply parses that failed
};

// Replays `trace`; each cut of each request runs against its own pair of
// daemons (shipped codec + McCache, reference codec + ListLruCache) that
// have seen the same history on that cut.
std::optional<Failure> replay_wire(const std::vector<WireOp>& trace,
                                   WireCoverage* coverage = nullptr) {
  constexpr std::size_t kCuts = 4;
  std::vector<std::unique_ptr<McCache>> shipped;
  std::vector<std::unique_ptr<ref::ListLruCache>> reference;
  for (std::size_t k = 0; k < kCuts; ++k) {
    shipped.push_back(std::make_unique<McCache>(kWireCacheLimit));
    reference.push_back(std::make_unique<ref::ListLruCache>(kWireCacheLimit));
  }
  SimTime now = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const WireOp& op = trace[i];
    const auto cuts = cuttings(op.bytes, op.cut_seed);
    std::vector<Outcome> whole;
    now += op.advance;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      const std::string cut = "cut " + std::to_string(k) + ": ";
      std::vector<Outcome> got;
      std::vector<Outcome> want;
      if (op.parse == Parse::kRequest) {
        ByteBuf req(segmented(op.bytes, cuts[k]));
        ByteBuf ref_req(segmented(op.bytes, cuts[k]));
        const std::size_t ref_keys = ref::count_request_keys(ref_req);
        std::size_t keys = 0;
        // The reply tail is sealed inside the window on both sides.
        const auto seal = [](const ByteBuf& b) { return b.buffer(); };
        const auto bytes = [](const Buffer& b) { return to_string(b); };
        got.push_back(measured(
            [&] {
              return seal(
                  handle_request(*shipped[k], std::move(req), now, &keys));
            },
            bytes));
        want.push_back(measured(
            [&] {
              return seal(
                  ref::handle_request(*reference[k], std::move(ref_req), now));
            },
            bytes));
        got.push_back({"keys " + std::to_string(keys), {}});
        want.push_back({"keys " + std::to_string(ref_keys), {}});
      } else {
        const Buffer in = segmented(op.bytes, cuts[k]);
        got = parse_reply(op, in, /*shipped=*/true);
        want = parse_reply(op, in, /*shipped=*/false);
        if (op.parse == Parse::kGet) {
          ByteBuf msg(in);
          want.push_back({slots_from_map(ref::parse_get_response(msg), op.keys),
                          want[0].ledger});
        }
      }
      for (std::size_t j = 0; j < got.size(); ++j) {
        if (got[j].result != want[j].result) {
          return Failure{i, cut + "result " + got[j].result +
                                " != reference " + want[j].result};
        }
        if (got[j].ledger != want[j].ledger) {
          return Failure{i, cut + "ledger " + got[j].ledger.str() +
                                " != reference " + want[j].ledger.str()};
        }
        if (k > 0 && got[j].result != whole[j].result) {
          return Failure{i, cut + "result " + got[j].result +
                                " != unsegmented " + whole[j].result};
        }
      }
      if (coverage != nullptr) {
        const std::string& first = got[0].result;
        if (op.parse == Parse::kRequest) {
          if (k == 0 && first.find("VALUE ") != std::string::npos) {
            ++coverage->value_replies;
          }
          if (k == 0 && first.starts_with("ERROR")) ++coverage->error_replies;
          if (k == 0 && got[1].result != "keys 1") ++coverage->multi_key_gets;
        } else {
          if (got[0].ledger.copied > 0) ++coverage->staged_lines;
          if (k == 0 && first.starts_with("error")) ++coverage->parse_errors;
          if (k == 0 && first.starts_with("map ")) ++coverage->parsed_hits;
        }
      }
      if (k == 0) whole = std::move(got);
    }
  }
  return std::nullopt;
}

template <typename Op, typename Replay, typename Format>
void check_trace(const char* name, std::uint64_t seed,
                 const std::vector<Op>& trace, Replay&& replay,
                 Format&& format) {
  const auto failure = replay(trace);
  if (!failure) return;
  const auto minimized = harness::shrink_trace(
      trace, [&](const std::vector<Op>& c) { return replay(c).has_value(); });
  std::string dump;
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    dump += "  [" + std::to_string(i) + "] " + format(minimized[i]) + "\n";
  }
  const auto again = replay(minimized);
  std::fprintf(stderr,
               "%s FAILED: seed=%llu op %zu: %s\n"
               "minimized trace (%zu ops), fails at op %zu: %s\n%s",
               name, static_cast<unsigned long long>(seed),
               failure->op_index, failure->detail.c_str(), minimized.size(),
               again ? again->op_index : 0,
               again ? again->detail.c_str() : "?", dump.c_str());
  FAIL() << "op " << failure->op_index << ": " << failure->detail << " (seed "
         << seed << ", minimized to " << minimized.size() << " ops above)";
}

class MemcacheWireProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemcacheWireProperty, SegmentationAndReferenceAgree) {
  const std::uint64_t seed = GetParam();
  const auto trace = generate_wire_ops(seed, 600);
  check_trace("MemcacheWireProperty", seed, trace,
              [](const std::vector<WireOp>& t) { return replay_wire(t); },
              format_wire_op);

  WireCoverage cov;
  (void)replay_wire(trace, &cov);
  EXPECT_GT(cov.staged_lines, 20u);
  EXPECT_GT(cov.value_replies, 20u);
  EXPECT_GT(cov.error_replies, 10u);
  EXPECT_GT(cov.multi_key_gets, 20u);
  EXPECT_GT(cov.parsed_hits, 10u);
  EXPECT_GT(cov.parse_errors, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemcacheWireProperty,
                         ::testing::Values(1, 2, 3, 4));

// The shipped encoders emit the reference's bytes at the same ledger cost.
TEST(MemcacheWireProperty, EncodersMatchReference) {
  const auto wire = [](auto&& make) {
    const Ledger before = Ledger::now();
    const Buffer b = make().buffer();
    const Ledger cost = Ledger::now().since(before);
    return escape(to_string(b)) + " / " + cost.str();
  };
  Rng rng(0x5EED);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> keys(rng.range(1, 64));
    for (auto& k : keys) k = "key" + std::to_string(rng.below(1000));
    const bool with_cas = rng.chance(0.5);
    // Up to 10 bytes past the key limit: what a client may send.
    const std::string key =
        rng.chance(0.1) ? std::string(rng.range(200, kMaxKeyLen + 10), 'K')
                        : "key" + std::to_string(rng.below(1000));
    const auto verb = static_cast<StoreVerb>(rng.below(2));
    const auto flags = static_cast<std::uint32_t>(rng.next());
    const auto exptime = static_cast<std::uint32_t>(rng.below(100));
    const Buffer data = rng.chance(0.2)
                            ? Buffer{}
                            : to_buffer(random_bytes(rng, rng.below(100)));
    const std::uint64_t cas_id = rng.next();

    EXPECT_EQ(
        wire([&] { return with_cas ? encode_gets(keys) : encode_get(keys); }),
        wire([&] { return ref::encode_get(keys, with_cas); }));
    EXPECT_EQ(
        wire([&] { return encode_store(verb, key, flags, exptime, data); }),
        wire([&] {
          return ref::encode_store(verb, key, flags, exptime, data);
        }));
    EXPECT_EQ(
        wire([&] { return encode_cas(key, flags, exptime, data, cas_id); }),
        wire([&] {
          return ref::encode_cas(key, flags, exptime, data, cas_id);
        }));
    EXPECT_EQ(wire([&] { return encode_delete(key); }),
              wire([&] { return ref::encode_delete(key); }));
  }
}

// --- McCache vs the std::list-LRU reference ---

struct CacheOp {
  enum class Kind : std::uint8_t {
    kSet,
    kAdd,
    kCas,
    kGet,
    kDelete,
    kFlushAll,
    kFlushClean,
  };
  Kind kind = Kind::kGet;
  std::uint8_t key = 0;
  std::uint32_t flags = 0;
  std::uint32_t size = 0;
  std::uint8_t salt = 0;
  bool stale_cas = false;   // cas with an id that cannot match
  SimDuration ttl = 0;      // 0 = never expires
  SimDuration advance = 0;  // sim time passing before the op
};

constexpr std::size_t kCacheKeys = 200;
constexpr std::uint64_t kCacheLimit = 6 * kMiB;  // 6 slab pages

std::string cache_key(std::uint8_t k) {
  if (k == kCacheKeys) return std::string(kMaxKeyLen + 1, 'L');
  return "key" + std::to_string(k);
}

std::string format_cache_op(const CacheOp& op) {
  static constexpr const char* kNames[] = {
      "set", "add", "cas", "get", "delete", "flush_all", "flush_clean"};
  return std::string(kNames[static_cast<int>(op.kind)]) + " " +
         cache_key(op.key) + " flags=" + std::to_string(op.flags) +
         " size=" + std::to_string(op.size) + " salt=" +
         std::to_string(op.salt) + (op.stale_cas ? " stale" : "") +
         " ttl=" + std::to_string(op.ttl) + " advance=" +
         std::to_string(op.advance);
}

std::vector<CacheOp> generate_cache_ops(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<CacheOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CacheOp op;
    const std::uint64_t pick = rng.below(1000);
    using K = CacheOp::Kind;
    op.kind = pick < 450   ? K::kSet
              : pick < 530 ? K::kAdd
              : pick < 600 ? K::kCas
              : pick < 930 ? K::kGet
              : pick < 997 ? K::kDelete
              : pick < 999 ? K::kFlushClean
                           : K::kFlushAll;
    op.key = static_cast<std::uint8_t>(
        rng.chance(0.01) ? kCacheKeys : rng.below(kCacheKeys));
    op.flags = rng.chance(0.3) ? kWbDirtyFlag
                               : static_cast<std::uint32_t>(rng.below(4));
    // Value sizes from five bands, each inside one slab class, so the
    // classes compete for the six pages; the three large bands hold 5, 10
    // and 24 items a page against ~40 keys each, so each evicts within its
    // class. A rare item over 1 MiB is refused as too big.
    switch (rng.below(20)) {
      case 0: case 1: case 2: case 3:
        op.size = static_cast<std::uint32_t>(rng.below(30));
        break;
      case 4: case 5: case 6: case 7:
        op.size = static_cast<std::uint32_t>(rng.range(100, 130));
        break;
      case 8: case 9: case 10: case 11: case 12:
        op.size = static_cast<std::uint32_t>(rng.range(34000, 41000));
        break;
      case 13: case 14: case 15: case 16:
        op.size = static_cast<std::uint32_t>(rng.range(85000, 102000));
        break;
      default:
        op.size = static_cast<std::uint32_t>(
            rng.chance(0.03) ? rng.range(kMiB - 100, kMiB + 100)
                             : rng.range(165000, 200000));
        break;
    }
    op.salt = static_cast<std::uint8_t>(rng.below(256));
    op.stale_cas = rng.chance(0.3);
    op.ttl = rng.chance(0.2) ? rng.range(1, 40) * 50 * kMilli : 0;
    op.advance = rng.chance(0.3) ? rng.range(1, 20) * 10 * kMilli : 0;
    ops.push_back(op);
  }
  return ops;
}

std::string describe(const CacheStats& s) {
  return "cmd_get=" + std::to_string(s.cmd_get) +
         " cmd_set=" + std::to_string(s.cmd_set) +
         " hits=" + std::to_string(s.get_hits) +
         " misses=" + std::to_string(s.get_misses) +
         " evictions=" + std::to_string(s.evictions) +
         " expired=" + std::to_string(s.expired_unfetched) +
         " items=" + std::to_string(s.curr_items) +
         " bytes=" + std::to_string(s.bytes);
}

std::string describe(const SlabAllocator& s) {
  std::string out = "pages=" + std::to_string(s.pages_assigned());
  for (std::uint32_t c = 0; c < s.num_classes(); ++c) {
    if (s.used_chunks(c) + s.free_chunks(c) == 0) continue;
    out += " c" + std::to_string(c) + "=" + std::to_string(s.used_chunks(c)) +
           "/" + std::to_string(s.free_chunks(c));
  }
  return out;
}

std::string describe_void(const Expected<void>& r) {
  return r ? "ok" : "error " + std::string(errc_name(r.error()));
}

// Applies `op` to `cache` (either implementation) and describes the result.
// `cas_seen` holds the cas id each key's last get returned in this replay.
template <typename Cache>
std::string apply(Cache& cache, const CacheOp& op, SimTime now,
                  std::map<std::uint8_t, std::uint64_t>& cas_seen) {
  const std::string key = cache_key(op.key);
  const auto value = [&] {
    return Buffer::take(std::vector<std::byte>(op.size, std::byte{op.salt}));
  };
  const SimTime expire_at = op.ttl == 0 ? 0 : now + op.ttl;
  using K = CacheOp::Kind;
  switch (op.kind) {
    case K::kSet:
      return describe_void(cache.set(key, op.flags, expire_at, value(), now));
    case K::kAdd:
      return describe_void(cache.add(key, op.flags, expire_at, value(), now));
    case K::kCas: {
      const std::uint64_t id = cas_seen[op.key] + (op.stale_cas ? 1000 : 0);
      return describe_void(
          cache.cas(key, op.flags, expire_at, value(), id, now));
    }
    case K::kGet: {
      auto v = cache.get(key, now);
      if (v) cas_seen[op.key] = v->cas;
      return describe(v, [](const Value& x) {
        // Bytes as a size plus a digest: values run to hundreds of KiB.
        const std::string bytes = to_string(x.data);
        return "flags=" + std::to_string(x.flags) + " cas=" +
               std::to_string(x.cas) + " size=" + std::to_string(bytes.size()) +
               " hash=" + std::to_string(std::hash<std::string>{}(bytes));
      });
    }
    case K::kDelete:
      return describe_void(cache.del(key));
    case K::kFlushAll:
      cache.flush_all();
      return "flushed";
    case K::kFlushClean:
      cache.flush_clean();
      return "flushed clean";
  }
  return "?";
}

std::optional<Failure> replay_cache(const std::vector<CacheOp>& trace) {
  McCache shipped(kCacheLimit);
  ref::ListLruCache reference(kCacheLimit);
  std::map<std::uint8_t, std::uint64_t> cas_shipped, cas_reference;
  SimTime now = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const CacheOp& op = trace[i];
    now += op.advance;
    const std::string got = apply(shipped, op, now, cas_shipped);
    const std::string want = apply(reference, op, now, cas_reference);
    if (got != want) {
      return Failure{i, "returned " + got + ", reference " + want};
    }
    if (describe(shipped.stats()) != describe(reference.stats())) {
      return Failure{i, "stats " + describe(shipped.stats()) + ", reference " +
                            describe(reference.stats())};
    }
    if (shipped.item_count() != reference.item_count()) {
      return Failure{i, "item_count " + std::to_string(shipped.item_count()) +
                            ", reference " +
                            std::to_string(reference.item_count())};
    }
    if (describe(shipped.slabs()) != describe(reference.slabs())) {
      return Failure{i, "slabs " + describe(shipped.slabs()) + ", reference " +
                            describe(reference.slabs())};
    }
  }
  return std::nullopt;
}

class McCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McCacheProperty, MatchesListLruReference) {
  const std::uint64_t seed = GetParam();
  const auto trace = generate_cache_ops(seed, 3000);
  check_trace("McCacheProperty", seed, trace, replay_cache, format_cache_op);

  // Anti-vacuity: the trace must really evict in several classes, expire
  // items and fill the memory limit, or the comparison proves little.
  McCache probe(kCacheLimit);
  std::map<std::uint8_t, std::uint64_t> cas;
  std::set<std::uint32_t> evicting_classes;
  SimTime now = 0;
  for (const CacheOp& op : trace) {
    now += op.advance;
    const std::uint64_t evictions = probe.stats().evictions;
    (void)apply(probe, op, now, cas);
    const auto cls = probe.slabs().class_for(cache_key(op.key).size() +
                                             op.size + kItemOverhead);
    if (probe.stats().evictions > evictions && cls) {
      evicting_classes.insert(*cls);
    }
  }
  EXPECT_GT(probe.stats().evictions, 100u);
  EXPECT_GE(evicting_classes.size(), 3u);
  EXPECT_GT(probe.stats().expired_unfetched, 0u);
  EXPECT_EQ(probe.slabs().committed(), kCacheLimit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McCacheProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace imca::memcache
