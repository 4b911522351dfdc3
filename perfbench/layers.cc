#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "common/buffer.h"
#include "imca/block_mapper.h"
#include "imca/keys.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "store/object_store.h"

namespace perfbench {
namespace {

using namespace imca;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::string node_kind(const std::string& name) {
  if (name.rfind("client", 0) == 0) return "client";
  if (name.rfind("mcd", 0) == 0) return "mcd";
  return "brick";  // "gluster-server" on 1x1, "brick<g>.<r>" on grids
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Keeps timed results observable so the compiler cannot drop the calls.
volatile std::size_t g_sink = 0;

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit, std::uint64_t samples = 0,
         bool deterministic = true) {
  out.push_back(Metric{std::move(name), value, std::move(unit), samples,
                       deterministic});
}

}  // namespace

const Metric* find_metric(const std::vector<Metric>& ms,
                          const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Snapshot snapshot(cluster::GlusterTestbed& tb) {
  Snapshot s;
  s.now = tb.loop().now();
  auto& c = s.counters;
  c["sim.events"] = static_cast<double>(tb.loop().events_processed());

  net::Fabric& fab = tb.fabric();
  c["net.messages"] = static_cast<double>(fab.messages_sent());
  c["net.bytes"] = static_cast<double>(fab.bytes_sent());
  for (std::size_t i = 0; i < fab.node_count(); ++i) {
    net::Node& n = fab.node(static_cast<net::NodeId>(i));
    const std::string kind = node_kind(n.name());
    const std::pair<const char*, sim::FifoResource*> stations[] = {
        {"cpu", &n.cpu()}, {"tx", &n.nic_tx()}, {"rx", &n.nic_rx()}};
    for (const auto& [station, res] : stations) {
      s.stations.push_back(StationSample{
          kind, station, static_cast<double>(res->total_busy()),
          static_cast<double>(res->total_queued()),
          static_cast<double>(res->servers())});
    }
  }

  const memcache::CacheStats mc = tb.mcd_totals();
  c["memcache.cmd_get"] = static_cast<double>(mc.cmd_get);
  c["memcache.get_hits"] = static_cast<double>(mc.get_hits);
  c["memcache.evictions"] = static_cast<double>(mc.evictions);
  c["memcache.items"] = static_cast<double>(mc.curr_items);

  if (tb.imca_enabled()) {
    auto add_client = [&c](const mcclient::ClientStats& st) {
      c["mcclient.gets"] += static_cast<double>(st.gets);
      c["mcclient.sets"] += static_cast<double>(st.sets);
      c["mcclient.deletes"] += static_cast<double>(st.deletes);
    };
    for (std::size_t i = 0; i < tb.n_clients(); ++i) {
      const core::CmCacheXlator& cm = tb.cmcache(i);
      add_client(cm.mcds().stats());
      const core::CmCacheStats& st = cm.stats();
      c["cm.stat_hits"] += static_cast<double>(st.stat_hits);
      c["cm.stat_misses"] += static_cast<double>(st.stat_misses);
      c["cm.reads_from_cache"] += static_cast<double>(st.reads_from_cache);
      c["cm.reads_partial"] += static_cast<double>(st.reads_partial);
      c["cm.reads_forwarded"] += static_cast<double>(st.reads_forwarded);
      c["cm.blocks_requested"] += static_cast<double>(st.blocks_requested);
      c["cm.blocks_hit"] += static_cast<double>(st.blocks_hit);
      c["cm.range_fetches"] += static_cast<double>(st.range_fetches);
      c["cm.blocks_repaired"] += static_cast<double>(st.blocks_repaired);
      c["cm.coalesced_waiters"] += static_cast<double>(st.coalesced_waiters);
    }
    if (core::SmCacheXlator* sm = tb.smcache(); sm != nullptr) {
      add_client(sm->mcds().stats());
      const core::SmCacheStats& st = sm->stats();
      c["sm.blocks_published"] = static_cast<double>(st.blocks_published);
      c["sm.stats_published"] = static_cast<double>(st.stats_published);
      c["sm.purges"] = static_cast<double>(st.purges);
      c["sm.readbacks"] = static_cast<double>(st.readbacks);
    }
  }

  c["gluster.fops"] = static_cast<double>(tb.server_totals().fops);
  for (std::size_t b = 0; b < tb.n_brick_servers(); ++b) {
    store::BlockDevice& dev = tb.brick(b).device();
    c["store.pc_hits"] += static_cast<double>(dev.cache().hits());
    c["store.pc_misses"] += static_cast<double>(dev.cache().misses());
    c["store.pc_evictions"] += static_cast<double>(dev.cache().evictions());
    for (std::size_t d = 0; d < dev.raid().members(); ++d) {
      store::DiskModel& disk = dev.raid().disk(d);
      c["store.disk_seeks"] += static_cast<double>(disk.seeks());
      c["store.disk_busy"] += static_cast<double>(disk.head().total_busy());
      c["store.disk_queued"] +=
          static_cast<double>(disk.head().total_queued());
    }
  }

  const BufferStats& buf = buffer_stats();
  c["buffer.segments_allocated"] = static_cast<double>(buf.segments_allocated);
  c["buffer.bytes_copied"] = static_cast<double>(buf.bytes_copied);
  c["buffer.gather_calls"] = static_cast<double>(buf.gather_calls);
  return s;
}

void add_layer_counts(std::vector<Metric>& out, const Snapshot& before,
                      const Snapshot& after, std::uint64_t ops,
                      std::uint64_t bytes_read) {
  auto d = [&](const std::string& k) {
    const auto a = after.counters.find(k);
    const auto b = before.counters.find(k);
    return (a == after.counters.end() ? 0.0 : a->second) -
           (b == before.counters.end() ? 0.0 : b->second);
  };
  const double n_ops = static_cast<double>(ops);
  auto per_op = [&](const std::string& k) { return ratio(d(k), n_ops); };
  auto count = [](double v) { return static_cast<std::uint64_t>(v); };

  add(out, "sim.events_per_op", per_op("sim.events"), "count", ops);
  add(out, "net.messages_per_op", per_op("net.messages"), "count", ops);
  add(out, "net.bytes_per_op", per_op("net.bytes"), "B", ops);

  // Stations: busy and queued time summed over the nodes of a kind; util is
  // the busiest node's share of the phase (busy / (phase * servers)).
  const double phase_ns = static_cast<double>(after.now - before.now);
  for (const char* kind : {"client", "mcd", "brick"}) {
    for (const char* station : {"cpu", "tx", "rx"}) {
      double busy = 0, queued = 0, util = 0;
      for (std::size_t i = 0; i < after.stations.size(); ++i) {
        const StationSample& a = after.stations[i];
        if (a.kind != kind || a.station != station) continue;
        const StationSample& b = before.stations[i];
        const double nb = a.busy_ns - b.busy_ns;
        busy += nb;
        queued += a.queued_ns - b.queued_ns;
        util = std::max(util, ratio(nb, phase_ns * a.servers));
      }
      const std::string p = std::string("net.") + kind + "." + station;
      add(out, p + ".busy_ms", busy / 1e6, "ms");
      add(out, p + ".queue_ms", queued / 1e6, "ms");
      add(out, p + ".util", util, "ratio");
    }
  }

  const double gets = d("memcache.cmd_get");
  add(out, "memcache.get_hit_ratio", ratio(d("memcache.get_hits"), gets),
      "ratio", count(gets));
  add(out, "memcache.cmd_get", gets, "count");
  add(out, "memcache.evictions", d("memcache.evictions"), "count");
  add(out, "memcache.items", after.counters.at("memcache.items"), "count");

  add(out, "mcclient.gets_per_op", per_op("mcclient.gets"), "count", ops);
  add(out, "mcclient.sets_per_op", per_op("mcclient.sets"), "count", ops);
  add(out, "mcclient.deletes_per_op", per_op("mcclient.deletes"), "count",
      ops);

  const double stat_lookups = d("cm.stat_hits") + d("cm.stat_misses");
  add(out, "imca.cmcache.stat_hit_ratio", ratio(d("cm.stat_hits"), stat_lookups),
      "ratio", count(stat_lookups));
  const double blocks = d("cm.blocks_requested");
  add(out, "imca.cmcache.block_hit_ratio", ratio(d("cm.blocks_hit"), blocks),
      "ratio", count(blocks));
  add(out, "imca.cmcache.blocks_requested", blocks, "count");
  for (const char* k : {"reads_from_cache", "reads_partial", "reads_forwarded",
                        "range_fetches", "blocks_repaired",
                        "coalesced_waiters"}) {
    add(out, std::string("imca.cmcache.") + k, d(std::string("cm.") + k),
        "count");
  }
  for (const char* k :
       {"blocks_published", "stats_published", "purges", "readbacks"}) {
    add(out, std::string("imca.smcache.") + k, d(std::string("sm.") + k),
        "count");
  }

  add(out, "gluster.brick_fops_per_op", per_op("gluster.fops"), "count", ops);

  const double pc = d("store.pc_hits") + d("store.pc_misses");
  add(out, "store.page_cache_hit_ratio", ratio(d("store.pc_hits"), pc),
      "ratio", count(pc));
  add(out, "store.page_cache_misses", d("store.pc_misses"), "count");
  add(out, "store.page_cache_evictions", d("store.pc_evictions"), "count");
  add(out, "store.disk_seeks", d("store.disk_seeks"), "count");
  add(out, "store.disk_busy_ms", d("store.disk_busy") / 1e6, "ms");
  add(out, "store.disk_queue_ms", d("store.disk_queued") / 1e6, "ms");

  add(out, "buffer.copies_per_byte_read",
      ratio(d("buffer.bytes_copied"), static_cast<double>(bytes_read)),
      "ratio", bytes_read);
  add(out, "buffer.segments_allocated", d("buffer.segments_allocated"),
      "count");
  add(out, "buffer.gather_calls", d("buffer.gather_calls"), "count");
}

namespace {

// One fsapi op as the CMCache sees it: a stat key, or the blocks covering
// a read.
struct CacheOp {
  std::string path;
  bool stat = false;
  std::vector<std::uint64_t> blocks;
};

struct PassTimes {
  double key_ns = 0, select_ns = 0, encode_ns = 0, handle_ns = 0,
         parse_ns = 0;
  bool all_hit = true;
};

// Ops that call the ObjectStore, by SpanOp.
constexpr SpanOp kStoreOps[] = {SpanOp::kCreate, SpanOp::kWrite,
                                SpanOp::kRead, SpanOp::kStat};

struct StorePass {
  double ns[4] = {0, 0, 0, 0};
  std::uint64_t calls[4] = {0, 0, 0, 0};
};

int store_slot(SpanOp op) {
  for (int i = 0; i < 4; ++i) {
    if (kStoreOps[i] == op) return i;
  }
  return -1;
}

// Replays every successful span against a fresh ObjectStore. Runs of
// consecutive same-kind calls are timed as one batch.
StorePass replay_store(const std::vector<Span>& spans, const Buffer& zeros) {
  StorePass p;
  store::ObjectStore os;
  std::size_t i = 0;
  while (i < spans.size()) {
    const SpanOp op = spans[i].op;
    std::size_t j = i;
    const auto t0 = Clock::now();
    for (; j < spans.size() && spans[j].op == op; ++j) {
      const Span& s = spans[j];
      if (!s.ok) continue;
      switch (op) {
        case SpanOp::kCreate: (void)os.create(s.path, 0); break;
        case SpanOp::kWrite:
          (void)os.write(s.path, s.offset, zeros.slice(0, s.len), 0);
          break;
        case SpanOp::kRead: (void)os.read(s.path, s.offset, s.len); break;
        case SpanOp::kStat: (void)os.stat(s.path); break;
        case SpanOp::kTruncate: (void)os.truncate(s.path, s.len, 0); break;
        case SpanOp::kRename: (void)os.rename(s.path, s.to, 0); break;
        case SpanOp::kUnlink: (void)os.unlink(s.path); break;
        default: break;
      }
    }
    const double ns = ns_since(t0);
    if (const int slot = store_slot(op); slot >= 0) {
      p.ns[slot] += ns;
      for (std::size_t k = i; k < j; ++k) p.calls[slot] += spans[k].ok ? 1u : 0u;
    }
    i = j;
  }
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

bool add_replay_timings(std::vector<Metric>& out,
                        const std::vector<Span>& spans,
                        const cluster::GlusterTestbedConfig& cfg,
                        double budget_s) {
  const core::BlockMapper mapper(cfg.imca.block_size);
  const auto selector = core::make_selector(cfg.imca);
  const std::size_t n_mcds = cfg.n_mcds;

  std::vector<CacheOp> ops;
  std::uint64_t measured_ops = 0;
  std::uint64_t n_keys = 0;
  std::uint64_t max_write = 0;
  for (const Span& s : spans) {
    if (s.op == SpanOp::kWrite) max_write = std::max(max_write, s.len);
    if (!s.measured) continue;
    ++measured_ops;
    if (!s.ok || (s.op != SpanOp::kStat && s.op != SpanOp::kRead)) continue;
    CacheOp op;
    op.path = s.path;
    op.stat = s.op == SpanOp::kStat;
    if (!op.stat) op.blocks = mapper.covering(s.offset, s.len);
    n_keys += op.stat ? 1 : op.blocks.size();
    ops.push_back(std::move(op));
  }

  // One daemon cache per MCD holding every key the stream asks for, so the
  // replay times the hit path. Values share one segment.
  std::vector<std::unique_ptr<memcache::McCache>> caches;
  for (std::size_t m = 0; m < n_mcds; ++m) {
    caches.push_back(std::make_unique<memcache::McCache>(4 * kGiB));
  }
  const Buffer block = Buffer::zeros(mapper.block_size());
  ByteBuf attr_bytes;
  store::Attr{}.encode(attr_bytes);
  const Buffer attr = attr_bytes.buffer();
  // Per op, the keys routed to each daemon (in daemon order).
  std::vector<std::vector<std::pair<std::size_t, std::vector<std::string>>>>
      groups(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CacheOp& op = ops[i];
    std::map<std::size_t, std::vector<std::string>> by_server;
    if (op.stat) {
      std::string k = core::stat_key(op.path);
      by_server[selector->pick(k, std::nullopt, n_mcds)].push_back(k);
    } else {
      for (const std::uint64_t b : op.blocks) {
        std::string k = core::data_key(op.path, mapper.start_of(b));
        by_server[selector->pick(k, b, n_mcds)].push_back(k);
      }
    }
    for (auto& [server, keys] : by_server) {
      for (const std::string& k : keys) {
        (void)caches[server]->set(k, 0, 0, op.stat ? attr : block, 0);
      }
      groups[i].emplace_back(server, std::move(keys));
    }
  }
  std::uint64_t n_groups = 0;
  for (const auto& g : groups) n_groups += g.size();

  const Buffer zeros = Buffer::zeros(static_cast<std::size_t>(max_write));
  std::vector<double> key_ns, select_ns, encode_ns, handle_ns, parse_ns;
  std::vector<double> store_ns[4];
  StorePass calls;
  bool consistent = true;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double elapsed_s = ns_since(start) / 1e9;
    if (pass >= 3 && (elapsed_s >= budget_s || pass >= 200)) break;

    // Key construction, as CMCache builds them.
    std::vector<std::vector<std::string>> keys(ops.size());
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CacheOp& op = ops[i];
      if (op.stat) {
        keys[i].push_back(core::stat_key(op.path));
      } else {
        keys[i].reserve(op.blocks.size());
        for (const std::uint64_t b : op.blocks) {
          keys[i].push_back(core::data_key(op.path, mapper.start_of(b)));
        }
      }
    }
    key_ns.push_back(ns_since(t0));

    // Server selection for every key.
    std::size_t sink = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CacheOp& op = ops[i];
      for (std::size_t k = 0; k < keys[i].size(); ++k) {
        sink += selector->pick(
            keys[i][k],
            op.stat ? std::nullopt : std::optional<std::uint64_t>(op.blocks[k]),
            n_mcds);
      }
    }
    select_ns.push_back(ns_since(t0));
    g_sink = sink;

    // Multi-get request encoding, one per (op, daemon).
    std::vector<ByteBuf> requests;
    requests.reserve(n_groups);
    t0 = Clock::now();
    for (const auto& g : groups) {
      for (const auto& [server, ks] : g) {
        requests.push_back(memcache::encode_get(ks));
      }
    }
    encode_ns.push_back(ns_since(t0));

    // Daemon-side parse + lookup + response encoding.
    std::vector<ByteBuf> responses;
    responses.reserve(n_groups);
    std::size_t r = 0;
    t0 = Clock::now();
    for (const auto& g : groups) {
      for (const auto& [server, ks] : g) {
        responses.push_back(memcache::handle_request(
            *caches[server], std::move(requests[r++]), 0));
      }
    }
    handle_ns.push_back(ns_since(t0));

    // Client-side response parsing.
    std::size_t values = 0;
    t0 = Clock::now();
    for (ByteBuf& resp : responses) {
      auto parsed = memcache::parse_get_response(resp);
      if (parsed) values += parsed->size();
    }
    parse_ns.push_back(ns_since(t0));
    if (values != n_keys) consistent = false;

    const StorePass sp = replay_store(spans, zeros);
    for (int s = 0; s < 4; ++s) store_ns[s].push_back(sp.ns[s]);
    calls = sp;
  }

  auto per_call = [](const std::vector<double>& v, std::uint64_t n) {
    return n == 0 ? 0.0 : median(v) / static_cast<double>(n);
  };
  const double n_ops = static_cast<double>(measured_ops);
  auto per_op = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), n_ops);
  };
  add(out, "imca.key_ns", per_call(key_ns, n_keys), "ns", n_keys, false);
  add(out, "imca.key_calls_per_op", per_op(n_keys), "count", measured_ops);
  add(out, "mcclient.select_ns", per_call(select_ns, n_keys), "ns", n_keys,
      false);
  add(out, "mcclient.select_calls_per_op", per_op(n_keys), "count",
      measured_ops);
  const std::pair<const char*, const std::vector<double>*> mc[] = {
      {"encode_get", &encode_ns},
      {"handle_request", &handle_ns},
      {"parse_get", &parse_ns}};
  for (const auto& [fn, v] : mc) {
    add(out, std::string("memcache.") + fn + "_ns", per_call(*v, n_groups),
        "ns", n_groups, false);
    add(out, std::string("memcache.") + fn + "_calls_per_op", per_op(n_groups),
        "count", measured_ops);
  }
  // Store calls are replayed over the whole stream (setup too: creates only
  // happen there), so their per-op base is every recorded op.
  const std::uint64_t all_ops = spans.size();
  for (int s = 0; s < 4; ++s) {
    const std::string fn = span_op_name(kStoreOps[s]);
    add(out, "store." + fn + "_ns", per_call(store_ns[s], calls.calls[s]),
        "ns", calls.calls[s], false);
    add(out, "store." + fn + "_calls_per_op",
        ratio(static_cast<double>(calls.calls[s]),
              static_cast<double>(all_ops)),
        "count", all_ops);
  }
  return consistent;
}

}  // namespace perfbench
