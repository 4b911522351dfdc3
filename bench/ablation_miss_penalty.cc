// The IMCa miss penalty, killed: with partial-hit assembly + client-side
// read-repair, a read that finds k of n covering blocks cached is strictly
// cheaper than the paper's forward-on-any-miss behaviour for every k >= 1,
// and a warm re-read after one miss is a full cache hit — without SMCache's
// server-side publish doing the warming.
//
// The paper observes the opposite (§4.4): because CMCache discards every hit
// when any covering block misses, a cold IMCa read costs *more* than plain
// GlusterFS (the wasted multi-get plus the full server read).
//
// Method: one client, a 2-MCD bank, one n-block file fully cached by the
// write path; then exactly n-k tail blocks are evicted straight out of the
// daemons (zero simulated time) and one whole-file read is timed under
//   baseline — cfg.partial_hit_reads = false (the paper's path)
//   partial  — cfg.partial_hit_reads = true  (this repo's path)
// The warm-re-read check runs with SMCache unwired (testbed smcache=false)
// so only client-side read-repair can repopulate the bank.
//
// Output is one JSON object; exit code 0 iff both acceptance claims hold,
// so the bench doubles as a regression test (ctest: miss_penalty_ablation).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/buffer.h"
#include "imca/keys.h"

namespace {

using namespace imca;
using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;

constexpr std::uint64_t kBlock = 2 * kKiB;
constexpr std::size_t kBlocks = 8;  // file spans 8 blocks = 16 KiB
constexpr const char* kPath = "/abl/file";

GlusterTestbedConfig base_config() {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 1;
  cfg.n_mcds = 2;
  cfg.imca.block_size = kBlock;
  return cfg;
}

// Drop `path`'s blocks [first, kBlocks) from every daemon, directly (no
// simulated time passes — this models eviction, not traffic).
void evict_tail(GlusterTestbed& tb, std::size_t first) {
  for (std::size_t b = first; b < kBlocks; ++b) {
    const std::string key = core::data_key(kPath, b * kBlock);
    for (std::size_t m = 0; m < tb.n_mcds(); ++m) {
      (void)tb.mcd(m).cache().del(key);
    }
  }
}

struct ReadMeasure {
  double ns = 0;
  std::uint64_t bytes_copied = 0;  // buffer-layer memcpy during the read
  std::uint64_t gather_calls = 0;
};

// Kernel events processed across every testbed in the run — the perf
// trajectory's events/sec denominator (--json, EXPERIMENTS.md).
std::uint64_t g_events = 0;

// Seed the file (the write path publishes every block via SMCache), evict
// the tail so exactly k blocks stay cached, and time one whole-file read.
// The copy ledger is snapshotted around the read (including the window in
// which fire-and-forget read-repairs land), so `bytes_copied` is the full
// data-path cost of serving it.
ReadMeasure timed_read(bool partial_hit, std::size_t k) {
  auto cfg = base_config();
  cfg.imca.partial_hit_reads = partial_hit;
  GlusterTestbed tb(cfg);
  ReadMeasure m;
  tb.run([](GlusterTestbed& t, std::size_t cached,
            ReadMeasure& out) -> sim::Task<void> {
    auto f = co_await t.client(0).create(kPath);
    (void)co_await t.client(0).write(
        *f, 0, Buffer::zeros(kBlocks * kBlock));
    evict_tail(t, cached);
    const auto before = buffer_stats();
    const SimTime t0 = t.loop().now();
    (void)co_await t.client(0).read(*f, 0, kBlocks * kBlock);
    out.ns = static_cast<double>(t.loop().now() - t0);
    co_await t.loop().sleep(1 * kMilli);  // let repair sets land
    out.bytes_copied = buffer_stats().bytes_copied - before.bytes_copied;
    out.gather_calls = buffer_stats().gather_calls - before.gather_calls;
  }(tb, k, m));
  g_events += tb.loop().events_processed();
  return m;
}

double timed_read_ns(bool partial_hit, std::size_t k) {
  return timed_read(partial_hit, k).ns;
}

struct WarmResult {
  double cold_ns = 0;
  double warm_ns = 0;
  std::uint64_t blocks_repaired = 0;
  std::uint64_t warm_from_cache = 0;  // reads_from_cache delta on the re-read
};

// One evicted block, SMCache unwired: only client read-repair can rewarm the
// bank. The re-read must then be a full cache hit.
WarmResult warm_reread() {
  auto cfg = base_config();
  cfg.smcache = false;
  GlusterTestbed tb(cfg);
  WarmResult r;
  tb.run([](GlusterTestbed& t, WarmResult& out) -> sim::Task<void> {
    auto f = co_await t.client(0).create(kPath);
    (void)co_await t.client(0).write(
        *f, 0, Buffer::zeros(kBlocks * kBlock));
    // No SMCache: the bank is stone cold; the first read misses everywhere,
    // range-fetches once, and repairs all 8 blocks from the client.
    const SimTime t0 = t.loop().now();
    (void)co_await t.client(0).read(*f, 0, kBlocks * kBlock);
    out.cold_ns = static_cast<double>(t.loop().now() - t0);
    // Let the fire-and-forget repair sets land before re-reading.
    co_await t.loop().sleep(1 * kMilli);
    out.blocks_repaired = t.cmcache(0).stats().blocks_repaired;
    const std::uint64_t from_cache_before =
        t.cmcache(0).stats().reads_from_cache;
    const SimTime t1 = t.loop().now();
    (void)co_await t.client(0).read(*f, 0, kBlocks * kBlock);
    out.warm_ns = static_cast<double>(t.loop().now() - t1);
    out.warm_from_cache =
        t.cmcache(0).stats().reads_from_cache - from_cache_before;
  }(tb, r));
  g_events += tb.loop().events_processed();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = imca::bench::parse_args(argc, argv, imca::bench::kJson);
  const imca::bench::BenchTimer bench_timer;

  bool strictly_cheaper = true;
  std::printf("{\n  \"file_blocks\": %zu,\n  \"block_bytes\": %llu,\n",
              kBlocks, static_cast<unsigned long long>(kBlock));
  std::printf("  \"sweep\": [\n");
  for (std::size_t k = 0; k <= kBlocks; ++k) {
    const double base = timed_read_ns(false, k);
    const double part = timed_read_ns(true, k);
    // Strict win whenever there is a miss penalty to kill (1 <= k < n); at
    // k = n both paths are a full cache hit and must merely not regress.
    if (k >= 1 && k < kBlocks && !(part < base)) strictly_cheaper = false;
    if (k == kBlocks && part > base) strictly_cheaper = false;
    std::printf("    {\"cached_blocks\": %zu, \"baseline_us\": %.3f,"
                " \"partial_hit_us\": %.3f, \"reduction_pct\": %.1f}%s\n",
                k, base / 1e3, part / 1e3,
                base > 0 ? 100.0 * (base - part) / base : 0.0,
                k == kBlocks ? "" : ",");
  }
  std::printf("  ],\n");

  const WarmResult w = warm_reread();
  const bool warm_is_full_hit =
      w.warm_from_cache == 1 && w.blocks_repaired == kBlocks;
  std::printf("  \"warm_reread\": {\"smcache\": false, \"cold_us\": %.3f,"
              " \"warm_us\": %.3f, \"blocks_repaired\": %llu,"
              " \"full_cache_hit\": %s},\n",
              w.cold_ns / 1e3, w.warm_ns / 1e3,
              static_cast<unsigned long long>(w.blocks_repaired),
              warm_is_full_hit ? "true" : "false");
  // The copy ledger (tentpole metric): bytes the buffer layer memcpy'd per
  // byte the caller read.
  constexpr double kPayload = static_cast<double>(kBlocks * kBlock);
  const ReadMeasure full = timed_read(true, kBlocks);
  const ReadMeasure half = timed_read(true, kBlocks / 2);
  const auto ledger = [](const char* name, const ReadMeasure& m) {
    std::printf("    \"%s\": {\"bytes_copied\": %llu, \"gather_calls\":"
                " %llu, \"bytes_copied_per_byte_read\": %.3f},\n",
                name, static_cast<unsigned long long>(m.bytes_copied),
                static_cast<unsigned long long>(m.gather_calls),
                static_cast<double>(m.bytes_copied) / kPayload);
  };
  const bool le_one_payload =
      full.bytes_copied <= static_cast<std::uint64_t>(kPayload);
  std::printf("  \"copy_ledger\": {\n");
  std::printf("    \"payload_bytes\": %llu,\n",
              static_cast<unsigned long long>(kBlocks * kBlock));
  ledger("full_hit", full);
  ledger("half_hit", half);
  std::printf("    \"full_hit_copies_le_one_payload\": %s\n  },\n",
              le_one_payload ? "true" : "false");

  std::printf("  \"partial_hit_strictly_cheaper_for_k_ge_1\": %s\n}\n",
              strictly_cheaper ? "true" : "false");
  if (!imca::bench::write_bench_json(
          args.json_path,
          {bench_timer.finish("ablation/miss_penalty", g_events)})) {
    return 1;
  }
  return strictly_cheaper && warm_is_full_hit && le_one_payload ? 0 : 1;
}
