// perfbench — the IMCa simulator's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//   perfbench --selftest [--seed <n>]
//
// One process, one OS thread: simulated clients are coroutines on the DES
// loop. Untraced runs (--trace 0) repeat setup + measured phase on fresh
// testbeds until --seconds of wall time have passed (at least three reps)
// and report the median rep's host figures, timed in thread CPU time; the
// simulated figures must be identical in every rep. A traced run (--trace 1) runs one untraced rep,
// one traced rep and then replays the traced op stream against the layers'
// public functions; it reports the per-layer metrics.
//
// The output is one JSON line (the run record) that perfbench/run.py turns
// into the human table and the benchmark's result line. Exit status is 0
// when the run completed, whether or not it was correct; the record's
// "correct" field says which (the self-test exits 1 on any failure).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "layers.h"
#include "tracing.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace imca;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  bool selftest = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--spans <file>]\n"
               "       perfbench --selftest [--seed <n>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
      if (a.trace != 0 && a.trace != 1) usage("bad --trace");
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.selftest && make_workload(a.workload, a.seed) == nullptr) {
    usage("unknown or missing --workload");
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of this (the only) thread, user + sys. Host figures use it
// rather than wall time so other tenants of a shared machine, which delay
// the thread without making it do more work, do not move them.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double sys_seconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of simulated latencies, in microseconds.
double percentile_us(std::vector<SimDuration> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return to_micros(v[std::max<std::size_t>(rank, 1) - 1]);
}

// One setup + measured phase on a fresh testbed.
struct Rep {
  double setup_s = 0;
  double run_s = 0;
  double sys_s = 0;
  PhaseResult setup;
  PhaseResult run;
  Snapshot before;
  Snapshot after;
};

Rep run_rep(Workload& wl, SpanLog* log) {
  Rep rep;
  const double t0 = cpu_seconds();
  cluster::GlusterTestbed tb(wl.config());
  std::vector<std::unique_ptr<TracingClient>> wrappers;
  std::vector<fsapi::FileSystemClient*> fs;
  for (std::size_t i = 0; i < tb.n_clients(); ++i) {
    if (log != nullptr) {
      wrappers.push_back(std::make_unique<TracingClient>(
          tb.client(i), tb.loop(), static_cast<std::uint32_t>(i), *log));
      fs.push_back(wrappers.back().get());
    } else {
      fs.push_back(&tb.client(i));
    }
  }
  rep.setup = wl.setup(tb.loop(), fs);
  rep.setup_s = cpu_seconds() - t0;

  rep.before = snapshot(tb);
  if (log != nullptr) log->measured = true;
  const double sys0 = sys_seconds();
  const double t1 = cpu_seconds();
  rep.run = wl.run(tb.loop(), fs);
  rep.run_s = cpu_seconds() - t1;
  rep.sys_s = sys_seconds() - sys0;
  rep.after = snapshot(tb);
  return rep;
}

void add_metric(std::vector<Metric>& out, std::string name, double value,
                std::string unit, std::uint64_t samples, bool deterministic) {
  out.push_back(Metric{std::move(name), value, std::move(unit), samples,
                       deterministic});
}

// The simulated end-to-end metrics a phase exercised, plus the per-layer
// counts between its snapshots: everything that depends only on the seed.
std::vector<Metric> sim_metrics(const Rep& rep) {
  std::vector<Metric> m;
  const PhaseResult& r = rep.run;
  const std::pair<const char*, const std::vector<SimDuration>*> kinds[] = {
      {"stat", &r.stat_ns}, {"read", &r.read_ns}, {"write", &r.write_ns}};
  for (const auto& [kind, v] : kinds) {
    if (v->empty()) continue;
    const std::string p = std::string("sim_") + kind;
    add_metric(m, p + "_p50_us", percentile_us(*v, 0.50), "us", v->size(),
               true);
    add_metric(m, p + "_p99_us", percentile_us(*v, 0.99), "us", v->size(),
               true);
  }
  if (r.bytes_read > 0 && r.read_phase > 0) {
    add_metric(m, "sim_read_mbps",
               to_mib(r.bytes_read) / to_seconds(r.read_phase), "MB/s",
               r.read_ns.size(), true);
  }
  if (r.bytes_written > 0 && r.write_phase > 0) {
    add_metric(m, "sim_write_mbps",
               to_mib(r.bytes_written) / to_seconds(r.write_phase), "MB/s",
               r.write_ns.size(), true);
  }
  add_metric(m, "sim_makespan_s", to_seconds(r.makespan), "s", r.ops, true);
  add_layer_counts(m, rep.before, rep.after, r.ops, r.bytes_read);
  return m;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Every deterministic value, formatted exactly: equal strings <=> the runs
// agree bit for bit.
std::string fingerprint(const std::vector<Metric>& ms) {
  std::string s;
  for (const Metric& m : ms) {
    if (m.deterministic) s += m.name + "=" + fmt(m.value) + ";";
  }
  return s;
}

struct Check {
  std::string name;
  bool ok = false;
};

// Anti-vacuity: each workload must exercise the layers it exists for.
void workload_checks(const std::string& workload, const std::vector<Metric>& m,
                     std::vector<Check>& checks) {
  auto v = [&m](const char* name) {
    const Metric* x = find_metric(m, name);
    return x == nullptr ? -1.0 : x->value;
  };
  if (workload == "zipf_overflow") {
    checks.push_back({"reads_partial>0", v("imca.cmcache.reads_partial") > 0});
    checks.push_back({"range_fetches>0", v("imca.cmcache.range_fetches") > 0});
    checks.push_back({"memcache.evictions>0", v("memcache.evictions") > 0});
    checks.push_back(
        {"page_cache_misses>0", v("store.page_cache_misses") > 0});
    checks.push_back(
        {"full_hits>0", v("imca.cmcache.reads_from_cache") > 0});
  } else if (workload == "seq_stream") {
    checks.push_back({"block_hit_ratio==1",
                      v("imca.cmcache.block_hit_ratio") == 1.0});
    checks.push_back({"reads_partial==0", v("imca.cmcache.reads_partial") == 0});
    checks.push_back({"memcache.evictions==0", v("memcache.evictions") == 0});
  } else if (workload == "stat_fanout") {
    checks.push_back(
        {"no_block_gets", v("imca.cmcache.blocks_requested") == 0});
    checks.push_back(
        {"stat_misses>0", v("imca.cmcache.stat_hit_ratio") < 1.0});
  }
}

void print_record(const Args& a, const Workload& wl, std::size_t reps,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Check>& checks,
                  const std::vector<Metric>& metrics,
                  const std::vector<double>& rep_setup_s = {},
                  const std::vector<double>& rep_ops_per_s = {}) {
  bool correct = failed == 0;
  for (const Check& c : checks) correct = correct && c.ok;
  const cluster::GlusterTestbedConfig cfg = wl.config();
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,"
              " \"reps\": %zu, \"correct\": %s, \"attempted\": %llu,"
              " \"failed\": %llu, \"build_type\": \"%s\","
              " \"compiler\": \"%s\", \"input_digest\": \"%016llx\","
              " \"sizing\": {\"clients\": %zu, \"mcds\": %zu,"
              " \"mcd_memory_bytes\": %llu, \"page_cache_bytes\": %llu,"
              " \"working_set_bytes\": %llu},",
              std::string(wl.name()).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace, reps,
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER,
              static_cast<unsigned long long>(wl.input_digest()),
              cfg.n_clients, cfg.n_mcds,
              static_cast<unsigned long long>(cfg.n_mcds * cfg.mcd_memory),
              static_cast<unsigned long long>(cfg.server.page_cache_bytes),
              static_cast<unsigned long long>(wl.working_set_bytes()));
  auto list = [](const char* key, const std::vector<double>& v) {
    std::printf(" \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", fmt(v[i]).c_str());
    }
    std::printf("],");
  };
  list("rep_setup_s", rep_setup_s);
  list("rep_ops_per_s", rep_ops_per_s);
  std::printf(" \"checks\": [");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s}", i ? ", " : "",
                checks[i].name.c_str(), checks[i].ok ? "true" : "false");
  }
  std::printf("], \"metrics\": [");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s{\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\","
                " \"samples\": %llu, \"kind\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.deterministic ? "sim" : "host");
  }
  std::printf("]}\n");
}

// --trace 0: reps until the time budget is spent; medians of the reps' host
// figures.
int measure(const Args& a) {
  auto wl = make_workload(a.workload, a.seed);
  const auto start = Clock::now();
  std::vector<double> setup_s, ops_per_s;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> sim;
  std::string first;
  bool identical = true;
  do {
    const Rep rep = run_rep(*wl, nullptr);
    setup_s.push_back(rep.setup_s);
    ops_per_s.push_back(static_cast<double>(rep.run.ops) / rep.run_s);
    attempted += rep.setup.ops + rep.run.ops;
    failed += rep.setup.failed + rep.run.failed;
    std::vector<Metric> m = sim_metrics(rep);
    const std::string fp = fingerprint(m);
    if (first.empty()) {
      first = fp;
      sim = std::move(m);
    } else if (fp != first) {
      identical = false;
    }
  } while (setup_s.size() < 3 ||
           (seconds_since(start) < a.seconds && setup_s.size() < 1000));

  std::vector<Metric> out;
  add_metric(out, "setup_s", median(setup_s), "s", setup_s.size(), false);
  add_metric(out, "host_ops_per_s", median(ops_per_s), "ops/s",
             ops_per_s.size(), false);
  add_metric(out, "peak_rss_mb", peak_rss_mib(), "MiB", 0, false);
  add_metric(out, "failed_op_ratio",
             attempted == 0 ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(attempted),
             "ratio", attempted, false);
  // Per-layer counts are part of the determinism check but belong to the
  // traced run's report.
  for (Metric& m : sim) {
    if (m.name.rfind("sim_", 0) == 0) out.push_back(std::move(m));
  }
  const std::vector<Check> checks = {{"reps_identical", identical}};
  print_record(a, *wl, setup_s.size(), attempted, failed, checks, out,
               setup_s, ops_per_s);
  return 0;
}

// --trace 1: untraced and traced reps in alternation for half the time
// budget (the fastest of each gives the host figures and the tracing
// overhead), then the layer replays over the first traced rep's op stream.
int trace(const Args& a) {
  auto wl = make_workload(a.workload, a.seed);
  const auto start = Clock::now();
  SpanLog log;
  const Rep traced = run_rep(*wl, &log);
  const std::string fp = fingerprint(sim_metrics(traced));
  std::uint64_t attempted = traced.setup.ops + traced.run.ops;
  std::uint64_t failed = traced.setup.failed + traced.run.failed;
  auto ops_per_s = [](const Rep& r) {
    return static_cast<double>(r.run.ops) / r.run_s;
  };
  double best_traced = ops_per_s(traced);
  Rep best_plain;
  bool passthrough = true;
  std::size_t reps = 1;
  for (std::size_t pairs = 0;
       pairs < 3 || (seconds_since(start) < a.seconds / 2 && pairs < 1000);
       ++pairs) {
    Rep plain = run_rep(*wl, nullptr);
    SpanLog scratch;
    const Rep again = run_rep(*wl, &scratch);
    reps += 2;
    for (const Rep* r : {static_cast<const Rep*>(&plain), &again}) {
      attempted += r->setup.ops + r->run.ops;
      failed += r->setup.failed + r->run.failed;
      passthrough = passthrough && fingerprint(sim_metrics(*r)) == fp;
    }
    best_traced = std::max(best_traced, ops_per_s(again));
    if (pairs == 0 || ops_per_s(plain) > ops_per_s(best_plain)) {
      best_plain = std::move(plain);
    }
  }

  std::vector<Metric> out = sim_metrics(traced);
  const double events = best_plain.after.counters.at("sim.events") -
                        best_plain.before.counters.at("sim.events");
  add_metric(out, "sim.events_per_host_s", events / best_plain.run_s, "1/s", 0,
             false);
  add_metric(out, "proc.sys_s", best_plain.sys_s, "s", 0, false);
  add_metric(out, "trace.overhead_ratio", best_traced / ops_per_s(best_plain),
             "ratio", 0, false);
  const double budget = std::max(0.5, a.seconds - seconds_since(start));
  const bool replay_ok =
      add_replay_timings(out, log.spans, wl->config(), budget);

  std::vector<Check> checks = {{"trace_passthrough", passthrough},
                               {"replay_all_hit", replay_ok}};
  workload_checks(std::string(wl->name()), out, checks);
  if (!a.spans.empty() && !write_spans(log, a.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
    checks.push_back({"spans_written", false});
  }
  print_record(a, *wl, reps, attempted, failed, checks, out);
  return 0;
}

// Two runs with the same seed agree bit for bit on every simulated value
// and per-layer count; a different seed changes the generated inputs.
int selftest(const Args& a) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    auto w1 = make_workload(name, a.seed);
    auto w2 = make_workload(name, a.seed);
    auto w3 = make_workload(name, a.seed + 1);
    SpanLog l1, l2;
    const std::string f1 = fingerprint(sim_metrics(run_rep(*w1, &l1)));
    const std::string f2 = fingerprint(sim_metrics(run_rep(*w2, &l2)));
    const bool same = f1 == f2 && l1.spans.size() == l2.spans.size();
    const bool inputs_same_seed = w1->input_digest() == w2->input_digest();
    const bool inputs_differ = w1->input_digest() != w3->input_digest();
    std::printf("selftest %-14s same-seed metrics %s, same-seed inputs %s,"
                " other-seed inputs %s\n",
                name.c_str(), same ? "identical" : "DIFFER",
                inputs_same_seed ? "identical" : "DIFFER",
                inputs_differ ? "differ" : "IDENTICAL");
    ok = ok && same && inputs_same_seed && inputs_differ;
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  if (a.selftest) return perfbench::selftest(a);
  return a.trace ? perfbench::trace(a) : perfbench::measure(a);
}
