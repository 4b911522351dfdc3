#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "index.h"

namespace imca::lint {
namespace {

using std::size_t;

constexpr std::string_view kCoroRef = "IMCA-CORO-REF";
constexpr std::string_view kCoroLambda = "IMCA-CORO-LAMBDA";
constexpr std::string_view kCoroThis = "IMCA-CORO-THIS";
constexpr std::string_view kIterAwait = "IMCA-ITER-AWAIT";
constexpr std::string_view kLockAwait = "IMCA-LOCK-AWAIT";
constexpr std::string_view kStatRmw = "IMCA-STAT-RMW";
constexpr std::string_view kDetach = "IMCA-DETACH";
constexpr std::string_view kMovedBuf = "IMCA-MOVED-BUF";
constexpr std::string_view kByteVec = "IMCA-BYTE-VEC";
constexpr std::string_view kNolintBare = "IMCA-NOLINT-BARE";

// Identifiers that count as a liveness token for IMCA-CORO-THIS and the
// RMW checks: holding one means the coroutine re-checks object liveness
// after resuming (the alive_ pattern of ReplicateXlator::heal_worker), so
// state use after a suspension is deliberate.
bool is_liveness_ident(std::string_view s) {
  return s == "alive_" || s == "alive" || s == "self" || s == "self_" ||
         s == "shared_from_this" || s == "weak_from_this";
}

bool trailing_underscore(std::string_view s) {
  return s.size() > 1 && s.back() == '_';
}

// Stats-ish member names route the RMW-across-await finding to
// IMCA-STAT-RMW (counter lost-update) instead of IMCA-LOCK-AWAIT.
bool statsish(const std::string& key) {
  return key.find("stats") != std::string::npos ||
         key.find("ledger") != std::string::npos ||
         key.find("total") != std::string::npos ||
         key.find("count") != std::string::npos;
}

// ---------------------------------------------------------------------------
// NOLINT bookkeeping.

struct Suppression {
  std::set<std::string> ids;  // lowercase imca-* ids named in the comment
  bool justified = false;
  int comment_line = 0;
};

std::string lower(std::string s) {
  for (char& ch : s) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return s;
}

// line -> suppression active on that line.
std::map<int, Suppression> parse_nolints(const std::vector<Comment>& comments,
                                         std::vector<Finding>* findings,
                                         const std::string& file) {
  std::map<int, Suppression> out;
  for (const Comment& cm : comments) {
    size_t pos = cm.text.find("NOLINT");
    if (pos == std::string::npos) continue;
    size_t after = pos + 6;
    int target = cm.line;
    if (cm.text.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
      after = pos + 14;
      target = cm.line + 1;
    }
    if (after >= cm.text.size() || cm.text[after] != '(') continue;  // blanket
    const size_t close = cm.text.find(')', after);
    if (close == std::string::npos) continue;
    Suppression sup;
    sup.comment_line = cm.line;
    std::string list = cm.text.substr(after + 1, close - after - 1);
    size_t start = 0;
    while (start <= list.size()) {
      size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      std::string id = lower(list.substr(start, comma - start));
      id.erase(0, id.find_first_not_of(" \t"));
      id.erase(id.find_last_not_of(" \t") + 1);
      if (id.rfind("imca-", 0) == 0) sup.ids.insert(id);
      start = comma + 1;
    }
    if (sup.ids.empty()) continue;  // not ours (plain clang-tidy NOLINT)
    // The escape hatch needs a reason: "NOLINT(imca-x): why".
    size_t tail = close + 1;
    while (tail < cm.text.size() && std::isspace(static_cast<unsigned char>(
                                        cm.text[tail]))) {
      ++tail;
    }
    if (tail < cm.text.size() && cm.text[tail] == ':' &&
        cm.text.find_first_not_of(" \t", tail + 1) != std::string::npos) {
      sup.justified = true;
    } else {
      findings->push_back({file, cm.line, std::string(kNolintBare),
                           "NOLINT(imca-…) without a ': justification'"});
    }
    auto& slot = out[target];
    slot.ids.insert(sup.ids.begin(), sup.ids.end());
    slot.justified = sup.justified;
    slot.comment_line = sup.comment_line;
  }
  return out;
}

bool suppressed(const std::map<int, Suppression>& nolints, int line,
                std::string_view check) {
  auto it = nolints.find(line);
  if (it == nolints.end()) return false;
  const std::string id = lower(std::string(check));
  return it->second.ids.count(id) > 0 || it->second.ids.count("imca-*") > 0;
}

// ---------------------------------------------------------------------------
// Checks.

struct Param {
  size_t lo, hi;  // token range
};

std::vector<Param> split_params(const Cursor& c, size_t lo, size_t hi) {
  std::vector<Param> out;
  int depth = 0;
  size_t start = lo;
  for (size_t i = lo; i < hi; ++i) {
    const std::string_view s = c.at(i).text;
    if (s == "(" || s == "{" || s == "[" || s == "<") ++depth;
    else if (s == ")" || s == "}" || s == "]" || s == ">") --depth;
    else if (s == "," && depth == 0) {
      if (i > start) out.push_back({start, i});
      start = i + 1;
    }
  }
  if (hi > start) out.push_back({start, hi});
  return out;
}

std::string param_name(const Cursor& c, const Param& p) {
  std::string name;
  for (size_t i = p.lo; i < p.hi; ++i) {
    if (c.is(i, "=")) break;
    if (c.is_ident(i)) name = c.at(i).text;
  }
  return name;
}

void check_coro_ref(const Cursor& c, const FnEntity& e,
                    std::vector<Finding>* out, const std::string& file) {
  if (!e.is_coro || e.params_hi <= e.params_lo) return;
  for (const Param& p : split_params(c, e.params_lo, e.params_hi)) {
    bool has_const = false, has_lref = false, has_rref = false;
    bool has_view = false, has_bufview = false;
    for (size_t i = p.lo; i < p.hi; ++i) {
      if (c.is(i, "=")) break;  // default argument: not part of the type
      const Token& tk = c.at(i);
      if (tk.ident("const")) has_const = true;
      else if (tk.is("&")) has_lref = true;
      else if (tk.is("&&")) has_rref = true;
      else if (tk.ident("string_view")) has_view = true;
      else if (tk.ident("BufView")) has_bufview = true;
    }
    const std::string name = param_name(c, p);
    const int line = c.at(p.lo).line;
    std::string why;
    if (has_view) why = "std::string_view parameter";
    else if (has_bufview) why = "BufView parameter";
    else if (has_rref) why = "rvalue-reference parameter";
    else if (has_const && has_lref) why = "const-reference parameter";
    else continue;  // by-value, pointer, or mutable lvalue ref (exempt)
    out->push_back(
        {file, line, std::string(kCoroRef),
         why + " '" + name +
             "' can dangle across a suspension; pass by value (or Buffer)"});
  }
}

void check_coro_lambda(const FnEntity& e, std::vector<Finding>* out,
                       const std::string& file) {
  if (!e.is_lambda || !e.captures || !e.is_coro) return;
  out->push_back({file, e.line, std::string(kCoroLambda),
                  "capturing lambda is a coroutine; the frame outlives the "
                  "lambda object — use a named coroutine (or capture-free "
                  "lambda) with explicit parameters"});
}

bool entity_has_liveness(const Cursor& c, const std::vector<FnEntity>& all,
                         const FnEntity& e) {
  bool has = false;
  for_own_tokens(all, e, [&](size_t i) {
    if (c.is_ident(i) && is_liveness_ident(c.at(i).text)) {
      has = true;
      return false;
    }
    return true;
  });
  return has;
}

// IMCA-CORO-THIS, interprocedural on both sides: a suspension is a
// co_await whose operand may actually suspend (per the index), and a
// `this` touch is a literal `this` OR a bare call to a same-class method
// that (transitively) uses `this`. One finding per entity, at the first
// offending use.
void check_coro_this(const Cursor& c, const std::vector<FnEntity>& all,
                     const FnEntity& e, const SymbolIndex& idx,
                     std::vector<Finding>* out, const std::string& file) {
  if (!e.is_coro) return;
  if (entity_has_liveness(c, all, e)) return;
  bool suspended = false;
  size_t skip_until = 0;
  size_t hit = 0;
  std::string via;  // non-empty: transitive, through this member call
  for_own_tokens(all, e, [&](size_t i) {
    if (i < skip_until) return true;
    if (c.at(i).ident("co_await")) {
      const AwaitedCall ac = awaited_call(c, i);
      // The awaited callee is invoked before this await completes; if an
      // EARLIER await already suspended, creating a this-touching member
      // task here is already a touch.
      if (suspended && !e.cls.empty() && c.is_ident(i + 1) &&
          c.is(i + 2, "(") && idx.touches_this(e.cls, c.at(i + 1).text)) {
        hit = i + 1;
        via = c.at(i + 1).text;
        return false;
      }
      if (idx.may_suspend(ac.callee)) suspended = true;
      // Arguments of the awaited call evaluate before the suspension they
      // feed — skip the operand expression.
      skip_until = ac.past;
      return true;
    }
    if (!suspended) return true;
    if (c.at(i).ident("this")) {
      hit = i;
      return false;
    }
    if (c.is_ident(i) && c.is(i + 1, "(") && !e.cls.empty() &&
        !(i > 0 && (c.is(i - 1, ".") || c.is(i - 1, "->") ||
                    c.is(i - 1, "::"))) &&
        idx.touches_this(e.cls, c.at(i).text)) {
      hit = i;
      via = c.at(i).text;
      return false;
    }
    return true;
  });
  if (hit == 0) return;
  if (via.empty()) {
    out->push_back(
        {file, c.at(hit).line, std::string(kCoroThis),
         "`this` used after a co_await with no liveness token (alive_ / "
         "shared_from_this); the object may be destroyed while suspended"});
  } else {
    out->push_back(
        {file, c.at(hit).line, std::string(kCoroThis),
         "member call '" + via + "' reaches `this` (per the suspension "
         "summary) after a co_await with no liveness token; the object may "
         "be destroyed while suspended"});
  }
}

std::vector<size_t> own_tokens(const std::vector<FnEntity>& all,
                               const FnEntity& e) {
  std::vector<size_t> v;
  for_own_tokens(all, e, [&](size_t i) {
    v.push_back(i);
    return true;
  });
  return v;
}

// IMCA-ITER-AWAIT: a loop over a member container with a possibly-
// suspending await in its body, where some same-class method mutates that
// container — the interleaved mutator invalidates the iterator mid-loop.
void check_iter_await(const Cursor& c, const std::vector<FnEntity>& all,
                      const FnEntity& e, const SymbolIndex& idx,
                      std::vector<Finding>* out, const std::string& file) {
  if (!e.is_coro || e.cls.empty()) return;
  const std::vector<size_t> own = own_tokens(all, e);
  for (size_t oi = 0; oi < own.size(); ++oi) {
    const size_t i = own[oi];
    if (!(c.at(i).ident("for") && c.is(i + 1, "("))) continue;
    const size_t h_close = c.match(i + 1);
    if (h_close >= c.size()) continue;
    // The iterated member, if any.
    std::string member;
    int depth = 0;
    size_t colon = 0;
    for (size_t j = i + 2; j < h_close; ++j) {
      const std::string_view s = c.at(j).text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") --depth;
      else if (s == ":" && depth == 0) {
        colon = j;
        break;
      }
    }
    if (colon != 0) {  // range-for: the expression after ':'
      size_t p = colon + 1;
      if (c.is(p, "this") && c.is(p + 1, "->")) ++p;  // lands on '->' + 1 below
      if (c.is(p, "this")) p += 2;
      std::string last;
      if (c.is_ident(p)) {
        last = c.at(p).text;
        while ((c.is(p + 1, ".") || c.is(p + 1, "->")) && c.is_ident(p + 2)) {
          last = c.at(p + 2).text;
          p += 2;
        }
        if (c.is(p + 1, "(")) last.clear();  // snapshot() temporary: safe
      }
      if (trailing_underscore(last)) member = last;
    } else {  // classic for: look for member_.begin()
      for (size_t j = i + 2; j + 2 < h_close; ++j) {
        if (c.is_ident(j) && trailing_underscore(c.at(j).text) &&
            (c.is(j + 1, ".") || c.is(j + 1, "->")) &&
            (c.is(j + 2, "begin") || c.is(j + 2, "cbegin"))) {
          member = c.at(j).text;
          break;
        }
      }
    }
    if (member.empty() || !idx.mutated(e.cls, member)) continue;
    // Loop body extent: braced block or single statement.
    size_t b_lo = h_close + 1;
    size_t b_hi;
    if (c.is(b_lo, "{")) {
      b_hi = c.match(b_lo);
      ++b_lo;
    } else {
      b_hi = b_lo;
      int d2 = 0;
      while (b_hi < c.size()) {
        const std::string_view s = c.at(b_hi).text;
        if (s == "(" || s == "[" || s == "{") ++d2;
        else if (s == ")" || s == "]" || s == "}") --d2;
        else if (s == ";" && d2 == 0) break;
        ++b_hi;
      }
    }
    if (b_hi >= c.size()) continue;
    bool suspends = false;
    for (size_t oj = oi; oj < own.size() && own[oj] < b_hi; ++oj) {
      const size_t k = own[oj];
      if (k < b_lo || !c.at(k).ident("co_await")) continue;
      if (lock_acquire(c, k) ||
          idx.may_suspend(awaited_call(c, k).callee)) {
        suspends = true;
        break;
      }
    }
    if (suspends) {
      out->push_back(
          {file, c.at(i).line, std::string(kIterAwait),
           "iterating member '" + member + "' across a suspension while " +
               e.cls + " methods can mutate it — an interleaved coroutine "
               "invalidates the iterator; iterate a snapshot (copy or "
               "collected keys) instead"});
    }
  }
}

// A member expression at token i: `m_` / `this->m` with an optional single
// `.field` (not a call). Returns the key ("stats_.hits") and the index
// just past it.
struct MemberExpr {
  std::string key;
  size_t past;
};
std::optional<MemberExpr> member_expr(const Cursor& c, size_t i) {
  size_t p = i;
  if (c.is(p, "this") && c.is(p + 1, "->") && c.is_ident(p + 2)) {
    p += 2;
  } else {
    if (!(c.is_ident(p) && trailing_underscore(c.at(p).text))) {
      return std::nullopt;
    }
    if (p > 0 && (c.is(p - 1, ".") || c.is(p - 1, "->") || c.is(p - 1, "::"))) {
      return std::nullopt;  // someone else's member
    }
  }
  std::string key = c.at(p).text;
  size_t q = p + 1;
  if (c.is(q, ".") && c.is_ident(q + 1) && !c.is(q + 2, "(")) {
    key += "." + c.at(q + 1).text;
    q += 2;
  }
  return MemberExpr{key, q};
}

// IMCA-LOCK-AWAIT (both shapes) + IMCA-STAT-RMW, one pass per coroutine:
//  (a) held-guard tracking: `co_await m_.lock()` / ScopedLock::acquire(m_)
//      marks m_ held until its block closes; a later co_await whose
//      callee's lock summary includes a held mutex (or a direct re-lock)
//      is a SimMutex re-entry deadlock.
//  (b) RMW-across-await: a member read into a local, a suspension, then
//      the same member assigned from that stale local — with no guard
//      held, and no epoch/liveness re-check between the resume and the
//      write. Stats-ish members report as IMCA-STAT-RMW.
void check_lock_rmw(const Cursor& c, const std::vector<FnEntity>& all,
                    const FnEntity& e, const SymbolIndex& idx,
                    std::vector<Finding>* out, const std::string& file) {
  if (!e.is_coro) return;
  const std::vector<size_t> own = own_tokens(all, e);
  int depth = 0;
  std::map<std::string, int> held;  // mutex -> brace depth at acquisition
  std::map<std::string, int> held_line;
  struct Cap {
    std::string key;
    int line;
    std::uint64_t susp;
  };
  std::map<std::string, Cap> caps;  // local -> capture info
  std::uint64_t susp_count = 0;
  size_t last_susp_tok = 0;
  int last_susp_line = 0;
  size_t skip_until = 0;
  for (size_t oi = 0; oi < own.size(); ++oi) {
    const size_t i = own[oi];
    if (i < skip_until) continue;
    const Token& tk = c.at(i);
    if (tk.is("{")) {
      ++depth;
      continue;
    }
    if (tk.is("}")) {
      --depth;
      for (auto it = held.begin(); it != held.end();) {
        it = it->second > depth ? held.erase(it) : std::next(it);
      }
      continue;
    }
    if (tk.ident("co_await")) {
      if (auto la = lock_acquire(c, i)) {
        if (held.count(la->mutex) != 0) {
          out->push_back(
              {file, tk.line, std::string(kLockAwait),
               "re-acquiring mutex '" + la->mutex + "' already held since "
               "line " + std::to_string(held_line[la->mutex]) +
               " — sim::Mutex is not reentrant; this deadlocks"});
        } else {
          held[la->mutex] = depth;
          held_line[la->mutex] = tk.line;
        }
        ++susp_count;  // waiting for the lock is itself a suspension
        last_susp_tok = i;
        last_susp_line = tk.line;
        skip_until = la->past;
        continue;
      }
      const AwaitedCall ac = awaited_call(c, i);
      if (!ac.callee.empty() && !held.empty()) {
        if (const std::set<std::string>* locks = idx.locks_of(ac.callee)) {
          for (const std::string& m : *locks) {
            auto h = held.find(m);
            if (h != held.end()) {
              out->push_back(
                  {file, tk.line, std::string(kLockAwait),
                   "co_await '" + ac.callee + "' can re-acquire mutex '" +
                       m + "' held since line " +
                       std::to_string(held_line[m]) +
                       " (per its lock summary) — sim::Mutex is not "
                       "reentrant; this deadlocks"});
              break;
            }
          }
        }
      }
      if (idx.may_suspend(ac.callee)) {
        ++susp_count;
        last_susp_tok = i;
        last_susp_line = tk.line;
      }
      continue;
    }
    // Manual unlock releases the guard early.
    if (tk.ident("unlock") && c.is(i + 1, "(") && i >= 2 &&
        (c.is(i - 1, ".") || c.is(i - 1, "->")) && c.is_ident(i - 2)) {
      held.erase(c.at(i - 2).text);
      continue;
    }
    // Member write: `key <op>= ... local ...` after a suspension since the
    // capture of `local` from the same key.
    if (auto me = member_expr(c, i)) {
      size_t after = me->past;
      if (c.is(after, "[")) {
        const size_t m = c.match(after);
        if (m < c.size()) after = m + 1;
      }
      const std::string_view op =
          after < c.size() ? std::string_view(c.at(after).text) : "";
      if (op == "=" || op == "+=" || op == "-=" || op == "|=" || op == "&=" ||
          op == "^=") {
        for (size_t j = after + 1; j < c.size() && !c.is(j, ";"); ++j) {
          if (!c.is_ident(j)) continue;
          auto cap = caps.find(c.at(j).text);
          if (cap == caps.end() || cap->second.key != me->key ||
              cap->second.susp >= susp_count) {
            continue;
          }
          if (!held.empty()) break;  // guarded across the window
          bool rechecked = false;
          for (size_t k = last_susp_tok; k < i; ++k) {
            if (c.is_ident(k) &&
                (is_liveness_ident(c.at(k).text) ||
                 c.at(k).text.find("epoch") != std::string::npos)) {
              rechecked = true;
              break;
            }
          }
          if (rechecked) break;
          const bool stat = statsish(me->key);
          out->push_back(
              {file, tk.line, std::string(stat ? kStatRmw : kLockAwait),
               std::string(stat ? "counter '" : "member '") + me->key +
                   "' written from '" + cap->first +
                   "' captured on line " + std::to_string(cap->second.line) +
                   ", across the suspension on line " +
                   std::to_string(last_susp_line) +
                   " — an interleaved update is lost; re-read after "
                   "resuming, apply a delta, or hold the guard across "
                   "the window"});
          caps.erase(cap);
          break;
        }
        continue;
      }
    }
    // Local capture: `v = ...member...;` (declaration or assignment).
    if (c.is_ident(i) && !trailing_underscore(tk.text) && c.is(i + 1, "=") &&
        !(i > 0 &&
          (c.is(i - 1, ".") || c.is(i - 1, "->") || c.is(i - 1, "::")))) {
      std::optional<MemberExpr> src;
      for (size_t j = i + 2; j < c.size() && !c.is(j, ";"); ++j) {
        if ((src = member_expr(c, j))) break;
      }
      if (src) {
        caps[tk.text] = Cap{src->key, tk.line, susp_count};
      } else {
        caps.erase(tk.text);  // reassigned from something fresh
      }
    }
  }
}

void check_detach(const Cursor& c, const SymbolIndex& idx,
                  std::vector<Finding>* out, const std::string& file) {
  // Whole-file statement scan: after ';' '{' or '}', a statement that is
  // exactly `chain(...);` or `(void) chain(...);` where the chain's last
  // identifier names a Task-returning function drops a lazy task unrun.
  // Resolution is per-file first: the file's own declarations beat the
  // global (cross-file, name-widened) fallback.
  const auto ft = idx.file_task.find(file);
  const auto fn = idx.file_nontask.find(file);
  for (size_t i = 0; i < c.size(); ++i) {
    if (i != 0 && !c.is(i - 1, ";") && !c.is(i - 1, "{") && !c.is(i - 1, "}")) {
      continue;
    }
    size_t j = i;
    bool void_cast = false;
    if (c.is(j, "(") && c.is(j + 1, "void") && c.is(j + 2, ")")) {
      void_cast = true;
      j += 3;
    }
    if (!c.is_ident(j)) continue;
    std::string last = c.at(j).text;
    size_t k = j + 1;
    bool through_receiver = false;  // x.f() / x->f() / ns::f(): not plain lookup
    if (c.at(j).ident("this") && c.is(k, "->") && c.is_ident(k + 1)) {
      last = c.at(k + 1).text;  // this-> stays in-file: treat as a bare call
      k += 2;
    }
    while ((c.is(k, "::") || c.is(k, ".") || c.is(k, "->")) &&
           c.is_ident(k + 1)) {
      through_receiver = true;
      last = c.at(k + 1).text;
      k += 2;
    }
    if (!c.is(k, "(")) continue;
    const size_t close = c.match(k);
    if (close >= c.size() || !c.is(close + 1, ";")) continue;
    // A bare call (or this->) resolves by ordinary lookup, so the file's
    // own declarations are authoritative; a call through a receiver or a
    // qualifier resolves in a class/namespace AST-lite cannot see, so only
    // the conservative global rule applies there.
    const bool local_task = !through_receiver &&
        ft != idx.file_task.end() && ft->second.count(last) != 0;
    const bool local_non = !through_receiver &&
        fn != idx.file_nontask.end() && fn->second.count(last) != 0;
    if (local_non) continue;  // the file's own decls say non-Task/ambiguous
    if (!local_task && (idx.task_fns.count(last) == 0 ||
                        idx.ambiguous_fns.count(last) != 0)) {
      continue;  // cross-file fallback: unknown or globally ambiguous
    }
    out->push_back(
        {file, c.at(j).line, std::string(kDetach),
         std::string(void_cast ? "(void)-discarded" : "discarded") +
             " call to Task-returning '" + last +
             "' — a lazy task never runs; co_await it, store it, or "
             "spawn() it"});
  }
}

void check_moved_buf(const Cursor& c, std::vector<Finding>* out,
                     const std::string& file) {
  // Declarations of Buffer/ByteBuf variables seen so far: name -> live.
  // A `std::move(name)` poisons the name until the end of the innermost
  // block containing the move, or until `name =` reassigns it.
  struct Decl {
    bool moved = false;
    int moved_line = 0;
  };
  std::map<std::string, Decl> vars;
  std::vector<std::vector<std::string>> moved_stack;  // per brace depth
  moved_stack.emplace_back();
  for (size_t i = 0; i < c.size(); ++i) {
    const Token& tk = c.at(i);
    if (tk.is("{")) {
      moved_stack.emplace_back();
      continue;
    }
    if (tk.is("}")) {
      // Leaving the block un-poisons moves made inside it (a new iteration
      // or a sibling scope is a fresh start; cross-scope flow is beyond
      // AST-lite).
      for (const std::string& name : moved_stack.back()) {
        auto it = vars.find(name);
        if (it != vars.end()) it->second.moved = false;
      }
      moved_stack.pop_back();
      if (moved_stack.empty()) moved_stack.emplace_back();
      continue;
    }
    if ((tk.ident("Buffer") || tk.ident("ByteBuf")) && c.is_ident(i + 1) &&
        (c.is(i + 2, ";") || c.is(i + 2, "=") || c.is(i + 2, "{") ||
         c.is(i + 2, "(") || c.is(i + 2, ",") || c.is(i + 2, ")"))) {
      vars[c.at(i + 1).text] = Decl{};  // declaration (local, member or param)
      ++i;                              // don't treat the name as a use
      continue;
    }
    if (tk.ident("std") && c.is(i + 1, "::") && c.is(i + 2, "move") &&
        c.is(i + 3, "(") && c.is_ident(i + 4) && c.is(i + 5, ")")) {
      auto it = vars.find(c.at(i + 4).text);
      if (it != vars.end()) {
        if (it->second.moved) {
          out->push_back({file, c.at(i + 4).line, std::string(kMovedBuf),
                          "'" + it->first + "' moved again after std::move "
                          "on line " + std::to_string(it->second.moved_line)});
        } else {
          it->second.moved = true;
          it->second.moved_line = c.at(i + 4).line;
          moved_stack.back().push_back(it->first);
        }
      }
      i += 5;
      continue;
    }
    if (tk.kind == Tok::kIdent) {
      // `other.data` / `ns::data` is not the tracked local `data`.
      if (i > 0 && (c.is(i - 1, ".") || c.is(i - 1, "->") ||
                    c.is(i - 1, "::"))) {
        continue;
      }
      auto it = vars.find(tk.text);
      if (it != vars.end() && it->second.moved) {
        // Reassignment (or clear()) revives the variable.
        if ((c.is(i + 1, "=") && !c.is(i + 1, "==")) ||
            ((c.is(i + 1, ".") && (c.is(i + 2, "clear") ||
                                   c.is(i + 2, "reset"))))) {
          it->second.moved = false;
          continue;
        }
        // Member access on the object or any other read is a use.
        out->push_back({file, tk.line, std::string(kMovedBuf),
                        "use of '" + tk.text + "' after std::move on line " +
                            std::to_string(it->second.moved_line)});
        it->second.moved = false;  // one finding per move
      }
    }
  }
}

void check_byte_vec(const Cursor& c, const std::string& relpath,
                    bool all_checks, std::vector<Finding>* out,
                    const std::string& file) {
  // Scope: the data path (src/) minus the storage layer itself, which
  // legitimately adopts vectors into segments. The corpus opts in via
  // all_checks.
  if (!all_checks) {
    if (relpath.rfind("src/", 0) != 0) return;
    if (relpath.find("common/buffer.") != std::string::npos ||
        relpath.find("common/bytebuf.") != std::string::npos) {
      return;
    }
  }
  for (size_t i = 0; i + 7 < c.size(); ++i) {
    if (!(c.at(i).ident("std") && c.is(i + 1, "::") && c.is(i + 2, "vector") &&
          c.is(i + 3, "<") && c.at(i + 4).ident("std") && c.is(i + 5, "::") &&
          c.is(i + 6, "byte") && c.is(i + 7, ">"))) {
      continue;
    }
    size_t after = i + 8;
    if (c.is_ident(after)) ++after;  // optional parameter name
    const bool param_pos = c.is(after, ",") || c.is(after, ")");
    // Return-type position: Task< or Expected< within the last few tokens
    // with the angle still open.
    bool ret_pos = false;
    for (size_t back = 1; back <= 6 && back <= i; ++back) {
      if ((c.at(i - back).ident("Task") || c.at(i - back).ident("Expected")) &&
          c.is(i - back + 1, "<")) {
        ret_pos = true;
        break;
      }
    }
    if (param_pos || ret_pos) {
      out->push_back({file, c.at(i).line, std::string(kByteVec),
                      "payload-by-vector signature (use imca::Buffer on the "
                      "data path)"});
    }
  }
}

}  // namespace

std::vector<Finding> analyze(const std::string& relpath,
                             const LexedFile& lexed, const SymbolIndex& index,
                             bool all_checks) {
  Cursor c(lexed.tokens);
  std::vector<Finding> raw;
  std::map<int, Suppression> nolints =
      parse_nolints(lexed.comments, &raw, relpath);

  const std::vector<FnEntity> entities = collect_functions(c);
  for (const FnEntity& e : entities) {
    if (e.body_hi == 0) continue;
    check_coro_ref(c, e, &raw, relpath);
    check_coro_lambda(e, &raw, relpath);
    check_coro_this(c, entities, e, index, &raw, relpath);
    check_iter_await(c, entities, e, index, &raw, relpath);
    check_lock_rmw(c, entities, e, index, &raw, relpath);
  }
  check_detach(c, index, &raw, relpath);
  check_moved_buf(c, &raw, relpath);
  check_byte_vec(c, relpath, all_checks, &raw, relpath);

  std::vector<Finding> out;
  for (Finding& f : raw) {
    if (f.check != kNolintBare && suppressed(nolints, f.line, f.check)) {
      continue;
    }
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.check == b.check && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace imca::lint
