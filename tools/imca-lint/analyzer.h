// The imca-lint checks: this codebase's coroutine-lifetime and
// suspension-atomicity rules, encoded.
//
// Every check exists because a sanitizer or a fault matrix caught the bug
// class at runtime in an earlier PR and the rule is mechanical enough to
// enforce at build time (DESIGN.md §5g/§5k record the contract each check
// enforces). Since PR 9 the analyzer is interprocedural: pass 1
// (index.h/index.cc) builds a whole-tree symbol index with per-function
// suspension summaries, and pass 2 re-runs the checks with call-site
// suspension knowledge — `co_await relay()` is a suspension only if relay's
// call chain can actually suspend, and member state reached through a
// method call is seen, not just literal `this->`.
//
//   IMCA-CORO-REF     a coroutine taking a parameter whose referent can die
//                     while the frame is suspended: const lvalue reference,
//                     rvalue reference, std::string_view, or BufView.
//                     Non-const lvalue references are exempt — they cannot
//                     bind temporaries, and this codebase uses them only for
//                     environment handles (EventLoop&, rigs) and out-params
//                     that the caller keeps alive across the await.
//   IMCA-CORO-LAMBDA  a capturing lambda that is itself a coroutine: the
//                     frame holds a reference to the lambda object, which is
//                     usually a dead temporary by the first resumption (the
//                     PR 1 stack-use-after-scope class).
//   IMCA-CORO-THIS    a coroutine that touches `this` after a suspension
//                     with no liveness token in scope (the alive_ pattern
//                     of ReplicateXlator::heal_worker); the object may be
//                     torn down while suspended. Interprocedural on both
//                     sides: the suspension is real only if the awaited
//                     callee can suspend (transitively, via the index), and
//                     the touch fires on a bare call to a same-class method
//                     that (transitively) uses `this`, not just on a
//                     literal `this` token.
//   IMCA-ITER-AWAIT   a coroutine iterating a member container with a
//                     possibly-suspending await in the loop body, where
//                     some method of the same class mutates that container
//                     (the PR 4 handler-map class: an interleaved coroutine
//                     invalidates the iterator mid-loop). Members nothing
//                     mutates (fixed topology: children_, subvols_) are
//                     exempt — iterate them freely.
//   IMCA-LOCK-AWAIT   two shapes of broken mutual exclusion across a
//                     suspension: (a) a sim::Mutex guard held across a
//                     co_await whose callee's lock summary includes the
//                     same mutex — SimMutex is not reentrant, so the resume
//                     deadlocks; (b) a member read into a local, a
//                     suspension, then the member written back from that
//                     stale local with no guard, epoch re-check, or
//                     liveness token — an interleaved writer's update is
//                     silently lost.
//   IMCA-STAT-RMW     shape (b) specialized to stats/ledger counters
//                     (member names containing stats/ledger/total/count):
//                     a counter incremented from state captured before a
//                     suspension is the classic lost-update that made the
//                     PR 8 flush accounting drift under reordered resumes.
//   IMCA-DETACH       a statement that creates a Task and immediately drops
//                     it (bare call or (void)-cast): lazy tasks never run
//                     unless awaited, spawned, or started. Name resolution
//                     is per-file first (a file whose own declarations make
//                     the name Task-only fires even if the name is
//                     ambiguous elsewhere in the tree), with the global
//                     index as cross-file fallback.
//   IMCA-MOVED-BUF    use of a Buffer/ByteBuf after std::move in the same
//                     scope (the PR 4 moved-from write-behind buffer class).
//   IMCA-BYTE-VEC     std::vector<std::byte> in a payload signature under
//                     src/ — Buffer is the one payload type on the data
//                     path (folds the old lint-no-byte-vectors grep).
//   IMCA-NOLINT-BARE  a NOLINT(imca-…) with no ": justification" text; the
//                     escape hatch requires a reason and cannot itself be
//                     suppressed.
//
// Suppression: `// NOLINT(imca-coro-ref): why` on the finding's line, or
// `// NOLINTNEXTLINE(imca-coro-ref): why` on the line above. Blanket
// clang-style NOLINT without an imca-* id does NOT silence imca-lint.
//
// AST-lite limitations (by design — no libclang in the build image): the
// suspension summaries are name-merged (overloads and virtual dispatch
// widen to "any same-name function"), awaited-call arguments are treated as
// evaluated before the await they feed, and IMCA-MOVED-BUF tracks only
// variables whose Buffer/ByteBuf declaration is visible in the same file.
// The corpus under tests/lint_corpus/ pins exactly what is and is not
// caught — including the transitive cases (transitive_bad/good.cc).
#pragma once

#include <string>
#include <vector>

#include "index.h"
#include "lexer.h"

namespace imca::lint {

struct Finding {
  std::string file;  // path as given on the command line
  int line = 0;
  std::string check;    // "IMCA-CORO-REF", ...
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return check < o.check;
  }
};

// Pass 2: run every check over one file against the whole-tree symbol
// index. `relpath` decides path-scoped checks (IMCA-BYTE-VEC applies under
// src/ only, everywhere when `all_checks` — used for the lint corpus) and
// selects the file's own declaration set for IMCA-DETACH resolution.
// NOLINT suppression is applied here; suppressed findings are dropped.
std::vector<Finding> analyze(const std::string& relpath, const LexedFile& lexed,
                             const SymbolIndex& index, bool all_checks);

}  // namespace imca::lint
