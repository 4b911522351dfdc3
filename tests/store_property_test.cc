// Property tests for the storage substrate:
//  * PageCache behaves exactly like a reference LRU over (file,page) keys
//    under random op sequences — trace-based, so a failure is shrunk to a
//    minimal op sequence (tests/harness/shrink.h) and printed with its seed;
//  * ObjectStore's extent map behaves exactly like flat per-file byte
//    vectors (bytes, attributes, accounting, listing), never copies a
//    payload byte, and leaves earlier read results untouched — same
//    trace/shrink discipline;
//  * SlabAllocator accounting invariants hold under random alloc/free churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "harness/shrink.h"
#include "memcache/slab.h"
#include "store/object_store.h"
#include "store/page_cache.h"

namespace imca {
namespace {

// Minimal, obviously-correct LRU used as the oracle.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool contains(std::uint64_t key) const { return map_.contains(key); }

  void touch(std::uint64_t key) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (capacity_ == 0) return;
    while (map_.size() >= capacity_) {
      map_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    map_[key] = order_.begin();
  }

  void erase_if(const std::function<bool(std::uint64_t)>& pred) {
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(*it)) {
        map_.erase(*it);
        it = order_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

std::uint64_t key_of(std::uint64_t file, std::uint64_t page) {
  return file * 1000003 + page;
}

// --- trace-based PageCache-vs-LRU property ---
//
// Ops are plain data so a failing sequence can be shrunk: any subsequence of
// a trace is itself a valid trace (every op is self-contained).

struct LruOp {
  enum class Kind : std::uint8_t {
    kAccess,      // access one page: promotes into both cache and oracle
    kAccessRun,   // access an `n`-page run
    kCovered,     // covered() must agree and not perturb LRU order
    kInvalidate,  // drop a whole file
  };
  Kind kind = Kind::kAccess;
  std::uint64_t file = 0;
  std::uint64_t page = 0;
  std::uint64_t n = 1;
};

std::string format_lru_op(const LruOp& op) {
  switch (op.kind) {
    case LruOp::Kind::kAccess:
      return "A f" + std::to_string(op.file) + " p" + std::to_string(op.page);
    case LruOp::Kind::kAccessRun:
      return "R f" + std::to_string(op.file) + " p" +
             std::to_string(op.page) + " n" + std::to_string(op.n);
    case LruOp::Kind::kCovered:
      return "C f" + std::to_string(op.file) + " p" + std::to_string(op.page);
    case LruOp::Kind::kInvalidate:
      return "I f" + std::to_string(op.file);
  }
  return "?";
}

// Same op mix the pre-trace version of this test used.
std::vector<LruOp> generate_lru_ops(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  constexpr std::uint64_t kFiles = 4;
  constexpr std::uint64_t kPages = 24;
  std::vector<LruOp> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    LruOp op;
    op.file = rng.below(kFiles);
    op.page = rng.below(kPages);
    switch (rng.below(4)) {
      case 0:
        op.kind = LruOp::Kind::kAccess;
        break;
      case 1:
        op.kind = LruOp::Kind::kAccessRun;
        op.n = 1 + rng.below(4);
        break;
      case 2:
        op.kind = LruOp::Kind::kCovered;
        break;
      case 3:
        if (rng.below(8) != 0) {  // rare, like real unlinks
          op.kind = LruOp::Kind::kAccess;
        } else {
          op.kind = LruOp::Kind::kInvalidate;
        }
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Replay `trace` against a fresh cache + oracle pair; nullopt = all
// invariants held, otherwise the index and a description of the first
// divergence.
struct LruFailure {
  std::size_t op_index = 0;
  std::string detail;
};

std::optional<LruFailure> replay_lru(const std::vector<LruOp>& trace,
                                     std::size_t cap_pages) {
  constexpr std::uint64_t kPage = store::PageCache::kPageSize;
  store::PageCache cache(cap_pages * kPage);
  ReferenceLru oracle(cap_pages);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LruOp& op = trace[i];
    switch (op.kind) {
      case LruOp::Kind::kAccess: {
        const bool oracle_hit = oracle.contains(key_of(op.file, op.page));
        const auto missed = cache.access(op.file, op.page * kPage, kPage);
        if ((missed == 0) != oracle_hit) {
          return LruFailure{i, "access hit/miss disagrees with oracle"};
        }
        oracle.touch(key_of(op.file, op.page));
        break;
      }
      case LruOp::Kind::kAccessRun: {
        std::uint64_t expect_missing = 0;
        for (std::uint64_t p = op.page; p < op.page + op.n; ++p) {
          if (!oracle.contains(key_of(op.file, p))) ++expect_missing;
          oracle.touch(key_of(op.file, p));
        }
        const auto missed = cache.access(op.file, op.page * kPage,
                                         op.n * kPage);
        if (missed != expect_missing * kPage) {
          return LruFailure{i, "run missed " + std::to_string(missed) +
                                   " bytes, oracle expected " +
                                   std::to_string(expect_missing * kPage)};
        }
        break;
      }
      case LruOp::Kind::kCovered: {
        const bool covered = cache.covered(op.file, op.page * kPage, kPage);
        if (covered != oracle.contains(key_of(op.file, op.page))) {
          return LruFailure{i, "covered() disagrees with oracle"};
        }
        break;
      }
      case LruOp::Kind::kInvalidate: {
        cache.invalidate(op.file);
        oracle.erase_if(
            [&](std::uint64_t k) { return k / 1000003 == op.file; });
        break;
      }
    }
    if (cache.resident_pages() != oracle.size()) {
      return LruFailure{i, "resident_pages " +
                               std::to_string(cache.resident_pages()) +
                               " != oracle size " +
                               std::to_string(oracle.size())};
    }
    if (cache.resident_pages() > cap_pages) {
      return LruFailure{i, "capacity exceeded"};
    }
  }
  return std::nullopt;
}

class PageCacheVsLru : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageCacheVsLru, RandomOpsMatchReferenceModel) {
  const std::size_t cap_pages = GetParam();
  const std::uint64_t seed = 0xCAFE + cap_pages;
  const auto trace = generate_lru_ops(seed, 4000);

  const auto failure = replay_lru(trace, cap_pages);
  if (!failure) return;

  // Shrink to a minimal failing subsequence and print a reproducible trace.
  const auto minimized =
      harness::shrink_trace(trace, [&](const std::vector<LruOp>& candidate) {
        return replay_lru(candidate, cap_pages).has_value();
      });
  std::string dump;
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    dump += "  [" + std::to_string(i) + "] " + format_lru_op(minimized[i]) +
            "\n";
  }
  std::fprintf(stderr,
               "PageCacheVsLru FAILED: seed=%llu cap=%llu op %llu: %s\n"
               "minimized trace (%llu ops):\n%s",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(cap_pages),
               static_cast<unsigned long long>(failure->op_index),
               failure->detail.c_str(),
               static_cast<unsigned long long>(minimized.size()),
               dump.c_str());
  FAIL() << "op " << failure->op_index << ": " << failure->detail
         << " (seed " << seed << ", minimized to " << minimized.size()
         << " ops above)";
}

INSTANTIATE_TEST_SUITE_P(Capacities, PageCacheVsLru,
                         ::testing::Values(1, 4, 16, 64));

// --- trace-based ObjectStore-vs-flat-bytes property ---
//
// The reference is the store as it was before the extent map: one flat byte
// vector per file, zero-filled on extension, copied in and copied out. Every
// op is self-contained (a write to a missing path must fail the same way in
// both), so any subsequence of a trace is a valid trace and failures shrink.

constexpr const char* kStorePaths[] = {"/a", "/b", "/c", "/d/e"};
constexpr std::uint64_t kNumStorePaths = std::size(kStorePaths);

struct StoreOp {
  enum class Kind : std::uint8_t {
    kCreate,
    kUnlink,
    kWrite,     // `len` bytes at `offset`, arriving as `pieces` views
    kTruncate,  // to `offset`
    kRename,    // `path` onto `to`
    kRead,
  };
  Kind kind = Kind::kRead;
  std::uint8_t path = 0;
  std::uint8_t to = 0;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::uint8_t pieces = 1;
  std::uint8_t salt = 0;
};

std::string format_store_op(const StoreOp& op) {
  const std::string p = kStorePaths[op.path];
  const std::string off = std::to_string(op.offset);
  const std::string len = std::to_string(op.len);
  switch (op.kind) {
    case StoreOp::Kind::kCreate: return "create " + p;
    case StoreOp::Kind::kUnlink: return "unlink " + p;
    case StoreOp::Kind::kWrite:
      return "write " + p + " @" + off + " +" + len + " in " +
             std::to_string(op.pieces) + " salt " + std::to_string(op.salt);
    case StoreOp::Kind::kTruncate: return "truncate " + p + " to " + off;
    case StoreOp::Kind::kRename:
      return "rename " + p + " -> " + kStorePaths[op.to];
    case StoreOp::Kind::kRead: return "read " + p + " @" + off + " +" + len;
  }
  return "?";
}

std::vector<StoreOp> generate_store_ops(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  // Most offsets land in a small window so writes keep colliding with the
  // extents earlier writes left; a rare far offset, and a rare long read,
  // span a hole wider than the store's first zero segment.
  constexpr std::uint64_t kWindow = 192;
  auto offset = [&] {
    return rng.below(40) == 0 ? rng.range(4 * kKiB, 20 * kKiB)
                              : rng.below(kWindow);
  };
  std::vector<StoreOp> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    StoreOp op;
    op.path = static_cast<std::uint8_t>(rng.below(kNumStorePaths));
    op.to = static_cast<std::uint8_t>(rng.below(kNumStorePaths));
    op.salt = static_cast<std::uint8_t>(rng.below(256));
    const std::uint64_t pick = rng.below(20);
    if (pick < 2) {
      op.kind = StoreOp::Kind::kCreate;
    } else if (pick < 3) {
      op.kind = StoreOp::Kind::kUnlink;
    } else if (pick < 5) {
      op.kind = StoreOp::Kind::kTruncate;
      op.offset = offset();
    } else if (pick < 6) {
      op.kind = StoreOp::Kind::kRename;
    } else if (pick < 13) {
      op.kind = StoreOp::Kind::kWrite;
      op.offset = offset();
      op.len = rng.below(10) == 0 ? 0 : rng.range(1, 72);
      op.pieces = static_cast<std::uint8_t>(std::min<std::uint64_t>(
          rng.range(1, 3), std::max<std::uint64_t>(op.len, 1)));
    } else {
      op.kind = StoreOp::Kind::kRead;
      op.offset = rng.below(8) == 0 ? offset() : rng.below(kWindow + 64);
      op.len = rng.below(16) == 0 ? rng.range(4 * kKiB, 24 * kKiB)
                                  : rng.below(kWindow);
    }
    ops.push_back(op);
  }
  return ops;
}

// `len` pattern bytes (never zero, so holes stand out) arriving as `pieces`
// views cut from one larger segment: the views start and stop mid-segment,
// like payload slices of a receive buffer.
Buffer make_store_payload(const StoreOp& op) {
  std::vector<std::byte> raw(op.len + 8);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::byte>(1 + (op.salt + i * 131) % 255);
  }
  const Buffer whole = Buffer::take(std::move(raw)).slice(4, op.len);
  Buffer out;
  std::uint64_t at = 0;
  for (std::uint8_t k = 0; k < op.pieces; ++k) {
    const std::uint64_t n =
        k + 1 == op.pieces ? op.len - at : op.len / op.pieces;
    out.append(whole.slice(at, n));
    at += n;
  }
  return out;
}

// The pre-extent-map ObjectStore, kept as the oracle. Beside the bytes it
// labels every byte with the write piece that last set it, so a write can
// report how many extents (maximal runs of one label) it overlapped.
class FlatStore {
 public:
  Expected<store::Attr> create(const std::string& path, SimTime now) {
    auto [it, inserted] = files_.try_emplace(path);
    if (!inserted) return Errc::kExist;
    store::Attr& a = it->second.attr;
    a.inode = next_inode_++;
    a.atime = a.mtime = a.ctime = now;
    return a;
  }

  Expected<void> unlink(const std::string& path) {
    auto it = files_.find(path);
    if (it == files_.end()) return Errc::kNoEnt;
    total_bytes_ -= it->second.data.size();
    files_.erase(it);
    return {};
  }

  Expected<store::Attr> stat(const std::string& path) const {
    auto it = files_.find(path);
    if (it == files_.end()) return Errc::kNoEnt;
    return it->second.attr;
  }

  Expected<std::uint64_t> write(const std::string& path, std::uint64_t offset,
                                const Buffer& data, SimTime now,
                                std::size_t& extents_overlapped) {
    auto it = files_.find(path);
    if (it == files_.end()) return Errc::kNoEnt;
    File& f = it->second;
    const std::uint64_t end = offset + data.size();
    extents_overlapped = 0;
    std::uint32_t run = 0;
    const std::uint64_t old_end = std::min<std::uint64_t>(end, f.data.size());
    for (std::uint64_t i = offset; i < old_end; ++i) {
      if (f.label[i] != 0 && f.label[i] != run) ++extents_overlapped;
      run = f.label[i];
    }
    if (end > f.data.size()) {
      total_bytes_ += end - f.data.size();
      f.data.resize(end);
      f.label.resize(end);
    }
    const std::vector<std::byte> bytes = data.gather();
    std::copy(bytes.begin(), bytes.end(),
              f.data.begin() + static_cast<std::ptrdiff_t>(offset));
    std::uint64_t at = offset;
    for (const BufView& v : data.views()) {
      ++next_label_;
      for (std::size_t k = 0; k < v.size(); ++k) f.label[at++] = next_label_;
    }
    f.attr.size = f.data.size();
    f.attr.mtime = f.attr.ctime = now;
    return f.attr.size;
  }

  Expected<std::vector<std::byte>> read(const std::string& path,
                                        std::uint64_t offset,
                                        std::uint64_t len) const {
    auto it = files_.find(path);
    if (it == files_.end()) return Errc::kNoEnt;
    const auto& data = it->second.data;
    if (offset >= data.size()) return std::vector<std::byte>{};
    const std::uint64_t n = std::min<std::uint64_t>(len, data.size() - offset);
    const auto first = data.begin() + static_cast<std::ptrdiff_t>(offset);
    return std::vector<std::byte>(first,
                                  first + static_cast<std::ptrdiff_t>(n));
  }

  Expected<void> truncate(const std::string& path, std::uint64_t size,
                          SimTime now) {
    auto it = files_.find(path);
    if (it == files_.end()) return Errc::kNoEnt;
    File& f = it->second;
    total_bytes_ = total_bytes_ - f.data.size() + size;
    f.data.resize(size);
    f.label.resize(size);
    f.attr.size = size;
    f.attr.mtime = f.attr.ctime = now;
    return {};
  }

  Expected<void> rename(const std::string& from, const std::string& to,
                        SimTime now) {
    auto src = files_.find(from);
    if (src == files_.end()) return Errc::kNoEnt;
    if (from == to) return {};
    if (auto dst = files_.find(to); dst != files_.end()) {
      total_bytes_ -= dst->second.data.size();
      files_.erase(dst);
    }
    File moved = std::move(src->second);
    files_.erase(src);
    moved.attr.ctime = now;
    files_.emplace(to, std::move(moved));
    return {};
  }

  std::size_t file_count() const { return files_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::vector<std::string> list() const {
    std::vector<std::string> out;
    for (const auto& [path, file] : files_) out.push_back(path);
    return out;
  }

 private:
  struct File {
    store::Attr attr;
    std::vector<std::byte> data;
    std::vector<std::uint32_t> label;  // 0 = hole
  };
  std::map<std::string, File> files_;
  std::uint64_t next_inode_ = 1;
  std::uint64_t total_bytes_ = 0;
  std::uint32_t next_label_ = 0;
};

struct StoreFailure {
  std::size_t op_index = 0;
  std::string detail;
};

// Writes by how many existing extents they overlapped: 0, 1, 2, 3, 4+.
using StraddleCounts = std::array<std::uint64_t, 5>;

// Replays `trace` against a fresh ObjectStore and FlatStore; nullopt when
// every check held after every op.
std::optional<StoreFailure> replay_store(const std::vector<StoreOp>& trace,
                                         StraddleCounts* straddles = nullptr) {
  struct Snapshot {
    Buffer got;
    std::vector<std::byte> want;
  };
  store::ObjectStore os;
  FlatStore ref;
  std::deque<Snapshot> snapshots;  // recent read results, re-checked later

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const StoreOp& op = trace[i];
    const SimTime now = i + 1;
    const std::string path = kStorePaths[op.path];
    const std::string to = kStorePaths[op.to];
    const Buffer payload =
        op.kind == StoreOp::Kind::kWrite ? make_store_payload(op) : Buffer{};
    auto fail = [&](std::string what) {
      return StoreFailure{i, format_store_op(op) + ": " + std::move(what)};
    };

    const std::uint64_t copied_before = buffer_stats().bytes_copied;
    Errc got_err = Errc::kOk, want_err = Errc::kOk;
    switch (op.kind) {
      case StoreOp::Kind::kCreate: {
        const auto got = os.create(path, now);
        const auto want = ref.create(path, now);
        got_err = got.error();
        want_err = want.error();
        if (got && want && *got != *want) return fail("create attr differs");
        break;
      }
      case StoreOp::Kind::kUnlink:
        got_err = os.unlink(path).error();
        want_err = ref.unlink(path).error();
        break;
      case StoreOp::Kind::kWrite: {
        const auto got = os.write(path, op.offset, payload, now);
        if (buffer_stats().bytes_copied != copied_before) {
          return fail("write copied payload bytes");
        }
        std::size_t overlapped = 0;
        const auto want = ref.write(path, op.offset, payload, now, overlapped);
        got_err = got.error();
        want_err = want.error();
        if (got && want && *got != *want) {
          return fail("write returned size " + std::to_string(*got) +
                      ", reference " + std::to_string(*want));
        }
        if (want && straddles && !payload.empty()) {
          ++(*straddles)[std::min<std::size_t>(overlapped, 4)];
        }
        break;
      }
      case StoreOp::Kind::kTruncate:
        got_err = os.truncate(path, op.offset, now).error();
        want_err = ref.truncate(path, op.offset, now).error();
        break;
      case StoreOp::Kind::kRename:
        got_err = os.rename(path, to, now).error();
        want_err = ref.rename(path, to, now).error();
        break;
      case StoreOp::Kind::kRead: {
        auto got = os.read(path, op.offset, op.len);
        if (buffer_stats().bytes_copied != copied_before) {
          return fail("read copied payload bytes");
        }
        auto want = ref.read(path, op.offset, op.len);
        got_err = got.error();
        want_err = want.error();
        if (got && want) {
          if (!got->content_equals(*want)) {
            return fail("read " + std::to_string(got->size()) +
                        " bytes that differ from the reference's " +
                        std::to_string(want->size()));
          }
          snapshots.push_back({std::move(*got), std::move(*want)});
          if (snapshots.size() > 8) snapshots.pop_front();
        }
        break;
      }
    }
    if (got_err != want_err) {
      return fail(std::string("error ") + std::string(errc_name(got_err)) +
                  ", reference " + std::string(errc_name(want_err)));
    }

    for (const char* p : kStorePaths) {
      const auto got = os.stat(p);
      const auto want = ref.stat(p);
      if (got.error() != want.error() || (got && *got != *want)) {
        return fail(std::string("stat ") + p + " differs (size " +
                    std::to_string(got ? got->size : 0) + ", reference " +
                    std::to_string(want ? want->size : 0) + ")");
      }
    }
    if (os.total_bytes() != ref.total_bytes()) {
      return fail("total_bytes " + std::to_string(os.total_bytes()) +
                  ", reference " + std::to_string(ref.total_bytes()));
    }
    if (os.file_count() != ref.file_count()) return fail("file_count differs");
    if (os.list() != ref.list()) return fail("list() differs");
    for (const Snapshot& snap : snapshots) {
      if (!snap.got.content_equals(snap.want)) {
        return fail("an earlier read result changed");
      }
    }
  }
  return std::nullopt;
}

class ObjectStoreProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectStoreProperty, ExtentMapMatchesFlatBytes) {
  const std::uint64_t seed = GetParam();
  const auto trace = generate_store_ops(seed, 3000);

  StraddleCounts straddles{};
  const auto failure = replay_store(trace, &straddles);
  if (!failure) {
    // Anti-vacuity: the trace really overwrote across extent boundaries.
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_GT(straddles[k], 0u) << "no write overlapped " << k << " extents";
    }
    return;
  }

  // Enough halving rounds to reach single-op chunks: a store trace replays
  // in well under a millisecond.
  const auto minimized = harness::shrink_trace(
      trace,
      [](const std::vector<StoreOp>& candidate) {
        return replay_store(candidate).has_value();
      },
      /*max_rounds=*/32);
  std::string dump;
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    dump += "  [" + std::to_string(i) + "] " + format_store_op(minimized[i]) +
            "\n";
  }
  std::fprintf(stderr,
               "ObjectStoreProperty FAILED: seed=%llu op %llu: %s\n"
               "minimized trace (%llu ops):\n%s",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(failure->op_index),
               failure->detail.c_str(),
               static_cast<unsigned long long>(minimized.size()),
               dump.c_str());
  FAIL() << "op " << failure->op_index << ": " << failure->detail << " (seed "
         << seed << ", minimized to " << minimized.size() << " ops above)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectStoreProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SlabProperty, AccountingInvariantsUnderChurn) {
  memcache::SlabAllocator slabs(8 * kMiB);
  Rng rng(77);
  // used chunks we hold per class
  std::unordered_map<std::uint32_t, std::uint64_t> held;
  std::uint64_t total_held = 0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.6) || total_held == 0) {
      const std::uint64_t size = 64 + rng.below(200 * 1024);
      auto cls = slabs.class_for(size);
      ASSERT_TRUE(cls.has_value());
      ASSERT_GE(slabs.chunk_size(*cls), size);
      if (slabs.alloc(*cls)) {
        ++held[*cls];
        ++total_held;
      } else {
        // Full: committed memory must actually be at the limit.
        ASSERT_GT(slabs.committed() + kMiB, slabs.memory_limit());
      }
    } else {
      // Free a random held chunk.
      auto it = held.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(held.size())));
      slabs.free(it->first);
      --total_held;
      if (--it->second == 0) held.erase(it);
    }

    // Invariants: per-class used matches what we hold; committed pages never
    // exceed the memory limit; used+free chunks fit in committed pages.
    ASSERT_LE(slabs.committed(), slabs.memory_limit());
    std::uint64_t used_total = 0;
    for (std::uint32_t c = 0; c < slabs.num_classes(); ++c) {
      used_total += slabs.used_chunks(c);
      const auto chunk = slabs.chunk_size(c);
      ASSERT_LE((slabs.used_chunks(c) + slabs.free_chunks(c)) * chunk,
                slabs.committed());
    }
    ASSERT_EQ(used_total, total_held);
  }
}

}  // namespace
}  // namespace imca
