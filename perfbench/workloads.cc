#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "sim/sync.h"
#include "store/object_store.h"

namespace perfbench {
namespace {

using namespace imca;
using fsapi::FileSystemClient;
using fsapi::OpenFile;
using Clients = std::vector<FileSystemClient*>;

// FNV-1a over everything a workload generates from its seed.
class Digest {
 public:
  void add(std::string_view s) {
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
    mix(0);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const Buffer& b) {
    for (const std::byte x : b) mix(static_cast<std::uint8_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t x) {
    h_ ^= x;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return std::string(buf, static_cast<std::size_t>(digits));
}

// `n` seeded bytes in one segment, so checks can borrow contiguous spans.
Buffer random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng.next();
    for (std::size_t j = 0; j < 8 && i + j < n; ++j) {
      v[i + j] = static_cast<std::byte>(x >> (8 * j));
    }
  }
  return Buffer::take(std::move(v));
}

// Bytes [off, off+len) of a single-segment buffer.
std::span<const std::byte> bytes_of(const Buffer& b, std::uint64_t off,
                                    std::uint64_t len) {
  return b.views().front().bytes().subspan(off, len);
}

bool same_bytes(const Buffer& got, std::span<const std::byte> want) {
  return got.size() == want.size() && got.content_equals(want);
}

void shuffle(std::vector<std::uint32_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

void note_end(PhaseResult& res, SimTime t0, SimTime now) {
  res.makespan = std::max(res.makespan, now - t0);
}

// Drive one coroutine per entry of `tasks` to completion on the loop.
void run_all(sim::EventLoop& loop, std::vector<sim::Task<void>> tasks) {
  for (auto& t : tasks) loop.spawn(std::move(t));
  loop.run();
}

void run_one(sim::EventLoop& loop, sim::Task<void> task) {
  loop.spawn(std::move(task));
  loop.run();
}

// --- stat_fanout -----------------------------------------------------------
//
// Fig 5's metadata path: one client creates the file set, then every client
// stats every file in its own seeded order. The first stat of each file
// misses in the MCDs and SMCache publishes the result; the rest hit.
class StatFanout final : public Workload {
 public:
  static constexpr std::size_t kClients = 16;
  static constexpr std::size_t kMcds = 2;
  static constexpr std::size_t kFiles = 4096;
  static constexpr std::uint64_t kMaxSize = 512;

  explicit StatFanout(std::uint64_t seed) {
    Rng rng(seed);
    const std::string dir = "/stat/" + hex(rng.next(), 8);
    for (std::size_t i = 0; i < kFiles; ++i) {
      paths_.push_back(dir + "/f" + std::to_string(i) + "." +
                       hex(rng.next(), 6));
      sizes_.push_back(rng.range(1, kMaxSize));
    }
    payload_ = random_bytes(rng, kMaxSize);
    for (std::size_t c = 0; c < kClients; ++c) {
      Rng crng = rng.fork();
      std::vector<std::uint32_t> order(kFiles);
      std::iota(order.begin(), order.end(), 0u);
      shuffle(order, crng);
      orders_.push_back(std::move(order));
    }
    for (std::size_t i = 0; i < kFiles; ++i) {
      digest_.add(paths_[i]);
      digest_.add(sizes_[i]);
    }
    for (const auto& o : orders_) {
      for (const auto i : o) digest_.add(i);
    }
    digest_.add(payload_);
  }

  std::string_view name() const override { return "stat_fanout"; }
  cluster::GlusterTestbedConfig config() const override {
    cluster::GlusterTestbedConfig cfg;
    cfg.n_clients = kClients;
    cfg.n_mcds = kMcds;
    return cfg;
  }
  std::uint64_t working_set_bytes() const override {
    return kFiles * store::Attr::kWireSize;
  }
  std::uint64_t input_digest() const override { return digest_.value(); }

  PhaseResult setup(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    run_one(loop, populate(*fs[0], res));
    return res;
  }

  PhaseResult run(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    std::vector<sim::Task<void>> tasks;
    const SimTime t0 = loop.now();
    for (std::size_t c = 0; c < fs.size(); ++c) {
      tasks.push_back(stat_all(loop, *fs[c], orders_[c], t0, res));
    }
    run_all(loop, std::move(tasks));
    res.read_phase = res.write_phase = res.makespan;
    return res;
  }

 private:
  sim::Task<void> populate(FileSystemClient& fs, PhaseResult& res) {
    for (std::size_t i = 0; i < kFiles; ++i) {
      res.ops += 3;
      auto f = co_await fs.create(paths_[i]);
      if (!f) {
        res.failed += 3;
        continue;
      }
      auto w = co_await fs.write(*f, 0, payload_.slice(0, sizes_[i]));
      if (!w || *w != sizes_[i]) ++res.failed;
      if (!co_await fs.close(*f)) ++res.failed;
    }
  }

  sim::Task<void> stat_all(sim::EventLoop& loop, FileSystemClient& fs,
                           const std::vector<std::uint32_t>& order, SimTime t0,
                           PhaseResult& res) {
    for (const std::uint32_t i : order) {
      const SimTime start = loop.now();
      auto st = co_await fs.stat(paths_[i]);
      res.stat_ns.push_back(loop.now() - start);
      ++res.ops;
      if (!st || st->size != sizes_[i]) ++res.failed;
    }
    note_end(res, t0, loop.now());
  }

  std::vector<std::string> paths_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::vector<std::uint32_t>> orders_;
  Buffer payload_;
  Digest digest_;
};

// --- seq_stream ------------------------------------------------------------
//
// Fig 9's headline deployment: every client writes its own file
// sequentially in 256 KB requests, then (after a barrier) re-reads it. MCD
// memory and the brick page cache both hold the whole working set, so
// every block read hits and the CMCache miss path does no work.
class SeqStream final : public Workload {
 public:
  static constexpr std::size_t kClients = 8;
  static constexpr std::size_t kMcds = 4;
  static constexpr std::uint64_t kRequest = 256 * kKiB;
  static constexpr std::uint64_t kBlock = 2 * kKiB;
  static constexpr std::uint64_t kBaseRequests = 8;  // 2 MiB per file
  static constexpr std::uint64_t kPool = 1 * kMiB;
  static constexpr std::uint64_t kMcdMemory = 16 * kMiB;
  static constexpr std::uint64_t kPageCache = 64 * kMiB;

  explicit SeqStream(std::uint64_t seed) {
    Rng rng(seed);
    const std::string dir = "/seq/" + hex(rng.next(), 8);
    pool_ = random_bytes(rng, kPool);
    for (std::size_t c = 0; c < kClients; ++c) {
      paths_.push_back(dir + "/iozone" + std::to_string(c));
      // A block-aligned tail: the last request is short and ends exactly
      // at EOF, so every block a read covers exists.
      sizes_.push_back(kBaseRequests * kRequest + kBlock * rng.range(1, 127));
      std::vector<std::uint64_t> src;
      for (std::uint64_t off = 0; off < sizes_.back(); off += kRequest) {
        src.push_back(rng.below(kPool - kRequest));
      }
      sources_.push_back(std::move(src));
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      digest_.add(paths_[c]);
      digest_.add(sizes_[c]);
      for (const auto s : sources_[c]) digest_.add(s);
    }
    digest_.add(pool_);
  }

  std::string_view name() const override { return "seq_stream"; }
  cluster::GlusterTestbedConfig config() const override {
    cluster::GlusterTestbedConfig cfg;
    cfg.n_clients = kClients;
    cfg.n_mcds = kMcds;
    cfg.imca.hash = core::HashScheme::kModulo;
    cfg.imca.block_size = kBlock;
    cfg.mcd_memory = kMcdMemory;
    cfg.server.page_cache_bytes = kPageCache;
    return cfg;
  }
  std::uint64_t working_set_bytes() const override {
    return std::accumulate(sizes_.begin(), sizes_.end(), std::uint64_t{0});
  }
  std::uint64_t input_digest() const override { return digest_.value(); }

  PhaseResult setup(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    fds_.assign(fs.size(), OpenFile{});
    std::vector<sim::Task<void>> tasks;
    for (std::size_t c = 0; c < fs.size(); ++c) {
      tasks.push_back(create(*fs[c], c, res));
    }
    run_all(loop, std::move(tasks));
    return res;
  }

  PhaseResult run(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    sim::Barrier barrier(loop, fs.size());
    Phases ph;
    ph.t0 = loop.now();
    std::vector<sim::Task<void>> tasks;
    for (std::size_t c = 0; c < fs.size(); ++c) {
      tasks.push_back(stream(loop, *fs[c], c, barrier, ph, res));
    }
    run_all(loop, std::move(tasks));
    res.write_phase = ph.write_end - ph.t0;
    res.read_phase = ph.read_end - ph.read_start;
    return res;
  }

 private:
  struct Phases {
    SimTime t0 = 0;
    SimTime write_end = 0;
    SimTime read_start = 0;
    SimTime read_end = 0;
  };

  sim::Task<void> create(FileSystemClient& fs, std::size_t c,
                         PhaseResult& res) {
    ++res.ops;
    auto f = co_await fs.create(paths_[c]);
    if (f) {
      fds_[c] = *f;
    } else {
      ++res.failed;
    }
  }

  sim::Task<void> stream(sim::EventLoop& loop, FileSystemClient& fs,
                         std::size_t c, sim::Barrier& barrier, Phases& ph,
                         PhaseResult& res) {
    const std::uint64_t size = sizes_[c];
    std::size_t k = 0;
    for (std::uint64_t off = 0; off < size; off += kRequest, ++k) {
      const std::uint64_t len = std::min(kRequest, size - off);
      const SimTime start = loop.now();
      auto w = co_await fs.write(fds_[c], off, pool_.slice(sources_[c][k], len));
      res.write_ns.push_back(loop.now() - start);
      ++res.ops;
      if (!w || *w != len) {
        ++res.failed;
      } else {
        res.bytes_written += len;
      }
    }
    ph.write_end = std::max(ph.write_end, loop.now());
    co_await barrier.arrive_and_wait();
    ph.read_start = loop.now();
    k = 0;
    for (std::uint64_t off = 0; off < size; off += kRequest, ++k) {
      const std::uint64_t len = std::min(kRequest, size - off);
      const SimTime start = loop.now();
      auto r = co_await fs.read(fds_[c], off, len);
      res.read_ns.push_back(loop.now() - start);
      ++res.ops;
      if (!r || !same_bytes(*r, bytes_of(pool_, sources_[c][k], len))) {
        ++res.failed;
      } else {
        res.bytes_read += len;
      }
    }
    ph.read_end = std::max(ph.read_end, loop.now());
    note_end(res, ph.t0, loop.now());
  }

  Buffer pool_;
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::vector<std::uint64_t>> sources_;  // pool offset per request
  std::vector<OpenFile> fds_;
  Digest digest_;
};

// --- zipf_overflow ---------------------------------------------------------
//
// A skewed mix whose working set is several times the MCD bank and larger
// than the brick page cache. Reads follow a seeded Zipf law over 16 KiB
// regions of a shared read-only hot set; beside them each client reads,
// overwrites (partial blocks), truncates, renames and stats its own private
// files, checked against a per-client byte oracle.
class ZipfOverflow final : public Workload {
 public:
  static constexpr std::size_t kClients = 8;
  static constexpr std::size_t kMcds = 2;
  static constexpr std::size_t kHotFiles = 48;
  static constexpr std::uint64_t kHotFileBytes = 512 * kKiB;  // 24 MiB set
  static constexpr std::uint64_t kRegion = 16 * kKiB;
  static constexpr double kZipfS = 0.9;
  static constexpr std::size_t kPrivFiles = 3;
  static constexpr std::uint64_t kPrivBytes = 32 * kKiB;
  static constexpr std::size_t kOpsPerClient = 1200;
  static constexpr std::uint64_t kPool = 2 * kMiB;
  static constexpr std::uint64_t kMcdMemory = 4 * kMiB;   // 8 MiB bank
  static constexpr std::uint64_t kPageCache = 12 * kMiB;
  static constexpr std::uint64_t kSetupWrite = 256 * kKiB;

  enum class Kind : std::uint8_t {
    kHotRead, kPrivRead, kPrivWrite, kTruncate, kRename, kStat
  };
  struct Op {
    Kind kind = Kind::kHotRead;
    std::uint32_t file = 0;
    std::uint64_t offset = 0;  // read/write offset; truncate: new size
    std::uint64_t len = 0;
    std::uint64_t src = 0;  // pool offset of a write's payload
  };

  explicit ZipfOverflow(std::uint64_t seed) {
    Rng rng(seed);
    dir_ = "/zipf/" + hex(rng.next(), 8);
    pool_ = random_bytes(rng, kPool);
    for (std::size_t f = 0; f < kHotFiles; ++f) {
      hot_paths_.push_back(dir_ + "/hot" + std::to_string(f));
      hot_src_.push_back(rng.below(kPool - kHotFileBytes));
    }
    const std::size_t regions = kHotFiles * kHotFileBytes / kRegion;
    std::vector<std::uint32_t> rank_to_region(regions);
    std::iota(rank_to_region.begin(), rank_to_region.end(), 0u);
    shuffle(rank_to_region, rng);
    std::vector<double> cdf(regions);
    double total = 0;
    for (std::size_t r = 0; r < regions; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = total;
    }
    for (auto& x : cdf) x /= total;

    for (std::size_t c = 0; c < kClients; ++c) {
      Rng crng = rng.fork();
      std::vector<std::uint64_t> init;
      for (std::size_t i = 0; i < kPrivFiles; ++i) {
        init.push_back(crng.below(kPool - kPrivBytes));
      }
      priv_src_.push_back(std::move(init));
      std::vector<Op> ops;
      for (std::size_t k = 0; k < kOpsPerClient; ++k) {
        ops.push_back(draw(crng, cdf, rank_to_region));
      }
      ops_.push_back(std::move(ops));
    }
    digest_.add(dir_);
    digest_.add(pool_);
    for (const auto s : hot_src_) digest_.add(s);
    for (const auto& p : priv_src_) {
      for (const auto s : p) digest_.add(s);
    }
    for (const auto& ops : ops_) {
      for (const Op& op : ops) {
        digest_.add(static_cast<std::uint64_t>(op.kind));
        digest_.add(op.file);
        digest_.add(op.offset);
        digest_.add(op.len);
        digest_.add(op.src);
      }
    }
  }

  std::string_view name() const override { return "zipf_overflow"; }
  cluster::GlusterTestbedConfig config() const override {
    cluster::GlusterTestbedConfig cfg;
    cfg.n_clients = kClients;
    cfg.n_mcds = kMcds;
    cfg.imca.hash = core::HashScheme::kCrc32;
    cfg.mcd_memory = kMcdMemory;
    cfg.server.page_cache_bytes = kPageCache;
    return cfg;
  }
  std::uint64_t working_set_bytes() const override {
    return kHotFiles * kHotFileBytes + kClients * kPrivFiles * kPrivBytes;
  }
  std::uint64_t input_digest() const override { return digest_.value(); }

  PhaseResult setup(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    // Stage 1: one client writes the shared hot set.
    run_one(loop, write_hot_set(*fs[0], res));
    // Stage 2: every client opens the hot set and creates its own files.
    state_.assign(fs.size(), ClientState{});
    std::vector<sim::Task<void>> tasks;
    for (std::size_t c = 0; c < fs.size(); ++c) {
      tasks.push_back(open_client(*fs[c], c, res));
    }
    run_all(loop, std::move(tasks));
    return res;
  }

  PhaseResult run(sim::EventLoop& loop, const Clients& fs) override {
    PhaseResult res;
    const SimTime t0 = loop.now();
    std::vector<sim::Task<void>> tasks;
    for (std::size_t c = 0; c < fs.size(); ++c) {
      tasks.push_back(mix(loop, *fs[c], c, t0, res));
    }
    run_all(loop, std::move(tasks));
    res.read_phase = res.write_phase = res.makespan;
    return res;
  }

 private:
  struct Private {
    std::string path;
    OpenFile fd;
    std::vector<std::byte> bytes;  // the oracle
  };
  struct ClientState {
    std::vector<OpenFile> hot;
    std::vector<Private> priv;
  };

  static Op draw(Rng& rng, const std::vector<double>& cdf,
                 const std::vector<std::uint32_t>& rank_to_region) {
    Op op;
    const double u = rng.uniform();
    if (u < 0.70) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) -
          cdf.begin());
      const std::uint64_t region =
          rank_to_region[std::min(rank, cdf.size() - 1)];
      const std::uint64_t per_file = kHotFileBytes / kRegion;
      op.kind = Kind::kHotRead;
      op.file = static_cast<std::uint32_t>(region / per_file);
      op.offset = (region % per_file) * kRegion + rng.below(kRegion);
      op.len = std::min(rng.range(256, 12 * kKiB), kHotFileBytes - op.offset);
      return op;
    }
    op.file = static_cast<std::uint32_t>(rng.below(kPrivFiles));
    if (u < 0.80) {
      op.kind = Kind::kPrivRead;
      op.offset = rng.below(kPrivBytes + 8 * kKiB);
      op.len = rng.range(256, 8 * kKiB);
    } else if (u < 0.90) {
      op.kind = Kind::kPrivWrite;  // partial-block overwrite
      op.offset = rng.below(kPrivBytes + 4 * kKiB);
      op.len = rng.range(1, 1500);
      op.src = rng.below(kPool - op.len);
    } else if (u < 0.94) {
      op.kind = Kind::kTruncate;
      op.offset = rng.range(4 * kKiB, kPrivBytes + 16 * kKiB);
    } else if (u < 0.97) {
      op.kind = Kind::kRename;
    } else {
      op.kind = Kind::kStat;
    }
    return op;
  }

  sim::Task<void> write_hot_set(FileSystemClient& fs, PhaseResult& res) {
    for (std::size_t f = 0; f < kHotFiles; ++f) {
      ++res.ops;
      auto h = co_await fs.create(hot_paths_[f]);
      if (!h) {
        ++res.failed;
        continue;
      }
      for (std::uint64_t off = 0; off < kHotFileBytes; off += kSetupWrite) {
        ++res.ops;
        auto w = co_await fs.write(*h, off,
                                   pool_.slice(hot_src_[f] + off, kSetupWrite));
        if (!w || *w != kSetupWrite) ++res.failed;
      }
      ++res.ops;
      if (!co_await fs.close(*h)) ++res.failed;
    }
  }

  sim::Task<void> open_client(FileSystemClient& fs, std::size_t c,
                              PhaseResult& res) {
    ClientState& st = state_[c];
    for (std::size_t f = 0; f < kHotFiles; ++f) {
      ++res.ops;
      auto h = co_await fs.open(hot_paths_[f]);
      if (!h) ++res.failed;
      st.hot.push_back(h.value_or(OpenFile{}));
    }
    for (std::size_t i = 0; i < kPrivFiles; ++i) {
      Private p;
      p.path = dir_ + "/c" + std::to_string(c) + "/p" + std::to_string(i);
      const auto init = bytes_of(pool_, priv_src_[c][i], kPrivBytes);
      p.bytes.assign(init.begin(), init.end());
      res.ops += 2;
      auto h = co_await fs.create(p.path);
      if (!h) {
        res.failed += 2;
      } else {
        p.fd = *h;
        auto w = co_await fs.write(p.fd, 0,
                                   pool_.slice(priv_src_[c][i], kPrivBytes));
        if (!w || *w != kPrivBytes) ++res.failed;
      }
      st.priv.push_back(std::move(p));
    }
  }

  sim::Task<void> mix(sim::EventLoop& loop, FileSystemClient& fs,
                      std::size_t c, SimTime t0, PhaseResult& res) {
    ClientState& st = state_[c];
    std::size_t k = 0;
    for (const Op& op : ops_[c]) {
      ++k;
      ++res.ops;
      const SimTime start = loop.now();
      switch (op.kind) {
        case Kind::kHotRead: {
          auto r = co_await fs.read(st.hot[op.file], op.offset, op.len);
          res.read_ns.push_back(loop.now() - start);
          const auto want =
              bytes_of(pool_, hot_src_[op.file] + op.offset, op.len);
          if (!r || !same_bytes(*r, want)) {
            ++res.failed;
          } else {
            res.bytes_read += r->size();
          }
          break;
        }
        case Kind::kPrivRead: {
          Private& p = st.priv[op.file];
          auto r = co_await fs.read(p.fd, op.offset, op.len);
          res.read_ns.push_back(loop.now() - start);
          const std::uint64_t size = p.bytes.size();
          const std::uint64_t from = std::min(op.offset, size);
          const std::uint64_t to = std::min(op.offset + op.len, size);
          const std::span<const std::byte> want(p.bytes.data() + from,
                                                to - from);
          if (!r || !same_bytes(*r, want)) {
            ++res.failed;
          } else {
            res.bytes_read += r->size();
          }
          break;
        }
        case Kind::kPrivWrite: {
          Private& p = st.priv[op.file];
          auto w = co_await fs.write(p.fd, op.offset,
                                     pool_.slice(op.src, op.len));
          res.write_ns.push_back(loop.now() - start);
          if (!w || *w != op.len) {
            ++res.failed;
            break;
          }
          res.bytes_written += op.len;
          if (p.bytes.size() < op.offset + op.len) {
            p.bytes.resize(op.offset + op.len);  // a hole reads as zeros
          }
          const auto src = bytes_of(pool_, op.src, op.len);
          std::copy(src.begin(), src.end(),
                    p.bytes.begin() + static_cast<std::ptrdiff_t>(op.offset));
          break;
        }
        case Kind::kTruncate: {
          Private& p = st.priv[op.file];
          auto t = co_await fs.truncate(p.path, op.offset);
          if (!t) {
            ++res.failed;
          } else {
            p.bytes.resize(op.offset);
          }
          break;
        }
        case Kind::kRename: {
          Private& p = st.priv[op.file];
          std::string to = dir_ + "/c" + std::to_string(c) + "/p" +
                           std::to_string(op.file) + "." + std::to_string(k);
          auto m = co_await fs.rename(p.path, to);
          if (!m) {
            ++res.failed;
          } else {
            p.path = std::move(to);
          }
          break;
        }
        case Kind::kStat: {
          const Private& p = st.priv[op.file];
          auto s = co_await fs.stat(p.path);
          res.stat_ns.push_back(loop.now() - start);
          if (!s || s->size != p.bytes.size()) ++res.failed;
          break;
        }
      }
    }
    note_end(res, t0, loop.now());
  }

  std::string dir_;
  Buffer pool_;
  std::vector<std::string> hot_paths_;
  std::vector<std::uint64_t> hot_src_;                // pool offset per file
  std::vector<std::vector<std::uint64_t>> priv_src_;  // initial contents
  std::vector<std::vector<Op>> ops_;
  std::vector<ClientState> state_;
  Digest digest_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stat_fanout", "seq_stream",
                                                 "zipf_overflow"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "stat_fanout") return std::make_unique<StatFanout>(seed);
  if (name == "seq_stream") return std::make_unique<SeqStream>(seed);
  if (name == "zipf_overflow") return std::make_unique<ZipfOverflow>(seed);
  return nullptr;
}

}  // namespace perfbench
