// Simulation-kernel perf trajectory (DESIGN.md §5h, ROADMAP "make the
// simulator itself production-fast").
//
// Drives N ∈ {1k, 10k, 100k} simulated clients through two mixes that
// bracket the kernel's real workloads:
//
//   * timer — every client loops over sleeps whose durations spread across
//     all four wheel levels (ns..ms) with a rare far-future sleep that
//     lands in the overflow list; this is the fig05/fig09 shape where the
//     queue holds ~N concurrent timers at all times.
//   * rpc   — client/server coroutine pairs ping-pong over Channels with a
//     short service sleep; schedule_now-dominated, the RPC/fault-matrix
//     shape.
//
// Each config runs on the hierarchical timer wheel and on the legacy
// std::priority_queue (`--legacy-queue` restricts to the baseline only),
// self-checks that both implementations process the identical event count
// and final clock (the determinism contract), prints the wheel-vs-legacy
// speedup at each N, and writes every record to BENCH_sim_core.json in the
// versioned imca-bench/v1 schema. CI's bench-trajectory job archives the
// JSON per commit; numbers are recorded, not gated.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace {

using namespace imca;
using namespace imca::bench;
using sim::Channel;
using sim::EventLoop;
using sim::QueueImpl;
using sim::Task;

// Deterministic per-client stream (xorshift64*); seeded from --seed and the
// client id so every run of a config is bit-for-bit identical.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

struct MixResult {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  SimTime final_now = 0;
  sim::EventLoopStats stats;
};

// Sleep durations matching the simulator's calibrated latency scales (ns
// device ticks through ~400 µs queueing tails, DESIGN.md §7) — mostly wheel
// levels 0-1 with a level-2 tail, plus one far sleep per 4096 draws that
// crosses the 2^32 ns wheel span into the overflow list.
SimDuration timer_duration(Rng& rng) {
  static constexpr SimDuration kScales[] = {1, 16, 256, 4096};
  const std::uint64_t r = rng.next();
  if ((r & 0xFFF) == 0) return 5 * kSecond;  // overflow-list excursion
  return kScales[r % 4] * (1 + ((r >> 8) % 97));
}

Task<void> timer_client(EventLoop& loop, std::uint64_t seed, std::size_t id,
                        std::size_t iters) {
  Rng rng(seed ^ (0xD1B54A32D192ED03ull * (id + 1)));
  for (std::size_t i = 0; i < iters; ++i) {
    co_await loop.sleep(timer_duration(rng));
  }
}

Task<void> rpc_server(EventLoop& loop, Channel<int>& req, Channel<int>& resp,
                      std::size_t rpcs) {
  for (std::size_t i = 0; i < rpcs; ++i) {
    const int v = co_await req.recv();
    co_await loop.sleep(70);  // calibrated-ish MCD service time, ns-scale
    resp.send(v + 1);
  }
}

Task<void> rpc_client(EventLoop& loop, Channel<int>& req, Channel<int>& resp,
                      std::uint64_t seed, std::size_t id, std::size_t rpcs) {
  Rng rng(seed ^ (0xABCDEF1234567891ull * (id + 1)));
  for (std::size_t i = 0; i < rpcs; ++i) {
    req.send(static_cast<int>(i));
    (void)co_await resp.recv();
    co_await loop.sleep(1 + rng.next() % 512);  // client think time
  }
}

struct RpcPair {
  Channel<int> req;
  Channel<int> resp;
  RpcPair(EventLoop& loop) : req(loop), resp(loop) {}
};

MixResult run_timer_mix(std::size_t n_clients, std::uint64_t seed,
                        QueueImpl impl, std::uint64_t target_events) {
  EventLoop loop(impl);
  const std::size_t iters =
      static_cast<std::size_t>(target_events / n_clients);
  for (std::size_t id = 0; id < n_clients; ++id) {
    loop.spawn(timer_client(loop, seed, id, iters));
  }
  const BenchTimer timer;
  const std::uint64_t events = loop.run();
  MixResult r;
  r.events = events;
  r.wall_ms = timer.elapsed_ms();
  r.events_per_sec =
      r.wall_ms > 0 ? static_cast<double>(events) / (r.wall_ms / 1e3) : 0;
  r.final_now = loop.now();
  r.stats = loop.stats();
  return r;
}

MixResult run_rpc_mix(std::size_t n_clients, std::uint64_t seed,
                      QueueImpl impl, std::uint64_t target_events) {
  EventLoop loop(impl);
  const std::size_t n_pairs = n_clients / 2;
  // ~6 kernel events per RPC round trip (send wakeup, service sleep, reply
  // wakeup, think sleep, plus spawn/finish amortization).
  const std::size_t rpcs = static_cast<std::size_t>(
      target_events / (6 * n_pairs));
  std::vector<std::unique_ptr<RpcPair>> pairs;
  pairs.reserve(n_pairs);
  for (std::size_t id = 0; id < n_pairs; ++id) {
    pairs.push_back(std::make_unique<RpcPair>(loop));
    RpcPair& p = *pairs.back();
    loop.spawn(rpc_server(loop, p.req, p.resp, rpcs));
    loop.spawn(rpc_client(loop, p.req, p.resp, seed, id, rpcs));
  }
  const BenchTimer timer;
  const std::uint64_t events = loop.run();
  MixResult r;
  r.events = events;
  r.wall_ms = timer.elapsed_ms();
  r.events_per_sec =
      r.wall_ms > 0 ? static_cast<double>(events) / (r.wall_ms / 1e3) : 0;
  r.final_now = loop.now();
  r.stats = loop.stats();
  return r;
}

MixResult run_mix(const char* mix, std::size_t n, std::uint64_t seed,
                  QueueImpl impl, std::uint64_t target_events) {
  return std::string(mix) == "timer"
             ? run_timer_mix(n, seed, impl, target_events)
             : run_rpc_mix(n, seed, impl, target_events);
}

const char* impl_name(QueueImpl impl) {
  return impl == QueueImpl::kTimerWheel ? "wheel" : "legacy";
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(
      argc, argv, kCsv | kScale | kJson | kSeed | kReps | kLegacyQueue);
  if (args.json_path.empty()) args.json_path = "BENCH_sim_core.json";

  const std::size_t client_counts[] = {1000, 10000, 100000};
  const char* mixes[] = {"timer", "rpc"};
  // ~4M kernel events per config at scale 1 — long enough that per-event
  // cost dominates setup, short enough for CI.
  const auto target_events =
      static_cast<std::uint64_t>(4e6 * args.scale);

  std::printf("== sim_core_bench: DES kernel events/sec, %s default queue"
              " (seed=%" PRIu64 ", target %" PRIu64 " events/config) ==\n",
              args.legacy_queue ? "legacy priority_queue" : "timer wheel",
              args.seed, target_events);

  Table table({"mix", "clients", "impl", "events", "wall_ms", "Mev/s",
               "cascades", "arena_KiB", "reuse%"});
  std::vector<BenchRecord> records;
  bool self_check_failed = false;

  for (const char* mix : mixes) {
    for (const std::size_t n : client_counts) {
      // Best-of-reps, with the two implementations interleaved inside each
      // rep: on a shared/noisy host, machine-wide drift (frequency steps,
      // neighbor load) then hits wheel and legacy about equally, so the
      // reported speedup is stable even when absolute rates wander.
      MixResult wheel{}, legacy{};
      for (int rep = 0; rep < args.reps; ++rep) {
        MixResult w{}, l{};
        if (!args.legacy_queue) {
          // ...and always the legacy baseline too, so one invocation prints
          // the before/after trajectory and cross-checks determinism.
          w = run_mix(mix, n, args.seed, QueueImpl::kTimerWheel,
                      target_events);
        }
        l = run_mix(mix, n, args.seed, QueueImpl::kLegacyHeap, target_events);
        if (!args.legacy_queue &&
            (w.events != l.events || w.final_now != l.final_now)) {
          std::fprintf(stderr,
                       "SELF-CHECK FAILED %s/n=%zu: wheel {events=%" PRIu64
                       " now=%" PRIu64 "} vs legacy {events=%" PRIu64
                       " now=%" PRIu64 "}\n",
                       mix, n, w.events, w.final_now, l.events, l.final_now);
          self_check_failed = true;
        }
        if (rep == 0 || w.events_per_sec > wheel.events_per_sec) wheel = w;
        if (rep == 0 || l.events_per_sec > legacy.events_per_sec) legacy = l;
      }

      for (const QueueImpl impl :
           {QueueImpl::kTimerWheel, QueueImpl::kLegacyHeap}) {
        if (args.legacy_queue && impl == QueueImpl::kTimerWheel) continue;
        const MixResult& r =
            impl == QueueImpl::kTimerWheel ? wheel : legacy;
        table.add_row(
            {mix, Table::cell(static_cast<std::uint64_t>(n)),
             impl_name(impl), Table::cell(r.events),
             Table::cell(r.wall_ms, 1), Table::cell(r.events_per_sec / 1e6, 2),
             Table::cell(r.stats.cascades),
             Table::cell(r.stats.arena_bytes / 1024),
             Table::cell(r.stats.events_scheduled
                             ? 100.0 * static_cast<double>(r.stats.arena_reuse) /
                                   static_cast<double>(r.stats.events_scheduled)
                             : 0.0,
                         1)});
        BenchRecord rec;
        rec.bench = std::string("sim_core/") + mix + "/n=" +
                    std::to_string(n) + "/" + impl_name(impl);
        rec.events = r.events;
        rec.wall_ms = r.wall_ms;
        rec.events_per_sec = r.events_per_sec;
        rec.peak_rss_kb = peak_rss_kb();
        records.push_back(std::move(rec));
      }

      if (!args.legacy_queue && legacy.events_per_sec > 0) {
        std::printf("# %s n=%zu: wheel %.2f Mev/s vs legacy %.2f Mev/s ->"
                    " %.2fx\n",
                    mix, n, wheel.events_per_sec / 1e6,
                    legacy.events_per_sec / 1e6,
                    wheel.events_per_sec / legacy.events_per_sec);
      }
    }
  }
  print_table(table, args);

  if (!write_bench_json(args.json_path, records)) return 1;
  if (self_check_failed) return 1;
  return 0;
}
