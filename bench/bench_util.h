// Shared helpers for the figure benches: client-list collection, strict flag
// parsing (each bench accepts only the flags it honours), percentage
// formatting, and the self-timing perf-trajectory recorder that writes the
// versioned BENCH_*.json schema (EXPERIMENTS.md "Perf trajectory").
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "common/table.h"

namespace imca::bench {

template <typename Testbed>
std::vector<fsapi::FileSystemClient*> clients_of(Testbed& tb) {
  std::vector<fsapi::FileSystemClient*> out;
  for (std::size_t i = 0; i < tb.n_clients(); ++i) {
    out.push_back(&tb.client(i));
  }
  return out;
}

struct BenchArgs {
  bool csv = false;
  // Scales the workload volume: 1 = the bench default (itself scaled down
  // from the paper; see EXPERIMENTS.md), larger values approach the paper's
  // raw volumes at the cost of runtime.
  double scale = 1.0;
  // --json=<path>: write this bench's perf records (BENCH_*.json schema)
  // to `path`. Empty = don't write (sim_core_bench overrides the default).
  std::string json_path;
  // --seed=<n>: deterministic seed for benches with randomized mixes.
  std::uint64_t seed = 1;
  // --reps=<n>: timing repetitions per config; self-timing benches report
  // the best rep (interleaved across variants, so machine-wide drift on a
  // busy host hits every variant roughly equally).
  int reps = 3;
  // --legacy-queue: run the EventLoop on the old std::priority_queue — the
  // perf baseline ablation.
  bool legacy_queue = false;
  // --bricks: run the bench's brick-scaling sweep (distribute groups) in
  // addition to its headline figure.
  bool bricks = false;
  // --writeback: run the durable write-back ablation (write-through vs
  // K-way dirty absorb into the MCD tier).
  bool writeback = false;
};

// The BenchArgs flags, one bit each. A bench passes the set it honours to
// parse_args; any other flag is rejected like a typo.
enum BenchFlag : unsigned {
  kCsv = 1u << 0,
  kScale = 1u << 1,
  kJson = 1u << 2,
  kSeed = 1u << 3,
  kReps = 1u << 4,
  kLegacyQueue = 1u << 5,
  kBricks = 1u << 6,
  kWriteback = 1u << 7,
};

struct BenchFlagHelp {
  unsigned flag;
  const char* name;
  const char* help;
};

inline constexpr BenchFlagHelp kBenchFlagHelp[] = {
    {kCsv, "--csv", "print tables as CSV"},
    {kScale, "--scale=<x>", "multiply workload volume (default 1.0)"},
    {kJson, "--json=<path>", "append perf records (BENCH_*.json schema)"},
    {kSeed, "--seed=<n>", "seed for randomized mixes (default 1)"},
    {kReps, "--reps=<n>", "timing reps per config, best wins (default 3)"},
    {kLegacyQueue, "--legacy-queue", "EventLoop on the legacy priority_queue"},
    {kBricks, "--bricks", "also run the brick-scaling sweep"},
    {kWriteback, "--writeback", "also run the write-back ablation"},
};

[[noreturn]] inline void usage_and_exit(const char* argv0,
                                        const char* bad_flag,
                                        unsigned honoured) {
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "%s: unknown flag '%s'\n", argv0, bad_flag);
  }
  std::fprintf(stderr, "usage: %s", argv0);
  for (const BenchFlagHelp& f : kBenchFlagHelp) {
    if ((honoured & f.flag) != 0) std::fprintf(stderr, " [%s]", f.name);
  }
  std::fprintf(stderr, "\n");
  for (const BenchFlagHelp& f : kBenchFlagHelp) {
    if ((honoured & f.flag) != 0) {
      std::fprintf(stderr, "  %-15s %s\n", f.name, f.help);
    }
  }
  std::exit(2);
}

// Strict: any unrecognized or unhonoured argument is a usage error (exit
// 2) — a typo like --sclae=4 must not silently run the bench at the wrong
// scale, and neither may a flag this bench would ignore.
inline BenchArgs parse_args(int argc, char** argv, unsigned honoured) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto is = [&](unsigned flag, const char* name) {
      return (honoured & flag) != 0 && std::strcmp(a, name) == 0;
    };
    // The text after `prefix` when `a` is that honoured flag, else null.
    const auto value = [&](unsigned flag, const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return (honoured & flag) != 0 && std::strncmp(a, prefix, n) == 0
                 ? a + n
                 : nullptr;
    };
    if (is(kCsv, "--csv")) {
      args.csv = true;
    } else if (const char* scale = value(kScale, "--scale=")) {
      args.scale = std::atof(scale);
      if (args.scale <= 0) args.scale = 1.0;
    } else if (const char* json = value(kJson, "--json=")) {
      args.json_path = json;
    } else if (const char* seed = value(kSeed, "--seed=")) {
      args.seed = std::strtoull(seed, nullptr, 10);
    } else if (const char* reps = value(kReps, "--reps=")) {
      args.reps = std::atoi(reps);
      if (args.reps < 1) args.reps = 1;
    } else if (is(kLegacyQueue, "--legacy-queue")) {
      args.legacy_queue = true;
    } else if (is(kBricks, "--bricks")) {
      args.bricks = true;
    } else if (is(kWriteback, "--writeback")) {
      args.writeback = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage_and_exit(argv[0], nullptr, honoured);
    } else {
      usage_and_exit(argv[0], a, honoured);
    }
  }
  return args;
}

inline void print_table(const Table& table, const BenchArgs& args) {
  if (args.csv) {
    table.print_csv();
  } else {
    table.print();
  }
}

inline std::string pct_reduction(double baseline, double value) {
  if (baseline <= 0) return "n/a";
  return Table::cell(100.0 * (baseline - value) / baseline, 1) + "%";
}

// --- perf trajectory (BENCH_*.json) ---------------------------------------
//
// Every record carries the full versioned schema so any single line is
// self-describing: {schema, git_rev, bench, events, wall_ms,
// events_per_sec, peak_rss_kb}. Files hold one JSON object with a
// `results` array; tools/check_bench_schema.py validates them in CI's
// bench-trajectory job. Perf numbers are recorded, never gated — machines
// vary; the trajectory across PRs is the signal.

inline constexpr const char* kBenchSchema = "imca-bench/v1";

inline const char* git_rev() {
#ifdef IMCA_GIT_REV
  return IMCA_GIT_REV;
#else
  return "unknown";
#endif
}

struct BenchRecord {
  std::string bench;  // e.g. "sim_core/timer/n=100000/wheel"
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::int64_t peak_rss_kb = 0;
};

inline std::int64_t peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
}

// Wall-clock stopwatch; finish(events) closes a BenchRecord.
class BenchTimer {
 public:
  BenchTimer() : start_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

  BenchRecord finish(std::string bench, std::uint64_t events) const {
    BenchRecord r;
    r.bench = std::move(bench);
    r.events = events;
    r.wall_ms = elapsed_ms();
    r.events_per_sec =
        r.wall_ms > 0 ? static_cast<double>(events) / (r.wall_ms / 1e3) : 0.0;
    r.peak_rss_kb = peak_rss_kb();
    return r;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Write `records` to `path` (overwrites: each bench owns its BENCH_*.json;
// the cross-PR trajectory lives in version control / CI artifacts, keyed by
// git_rev). Returns false on I/O failure.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n  \"git_rev\": \"%s\",\n"
               "  \"results\": [\n", kBenchSchema, git_rev());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"schema\": \"%s\", \"git_rev\": \"%s\","
                 " \"bench\": \"%s\", \"events\": %llu,"
                 " \"wall_ms\": %.3f, \"events_per_sec\": %.0f,"
                 " \"peak_rss_kb\": %lld}%s\n",
                 kBenchSchema, git_rev(), r.bench.c_str(),
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 r.events_per_sec, static_cast<long long>(r.peak_rss_kb),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# perf trajectory: %zu record%s -> %s (git_rev=%s)\n",
              records.size(), records.size() == 1 ? "" : "s", path.c_str(),
              git_rev());
  return true;
}

}  // namespace imca::bench
