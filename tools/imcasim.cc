// imcasim — command-line driver for ad-hoc experiments on the simulated
// testbeds, without writing C++.
//
//   imcasim --system=imca --mcds=4 --clients=32 --workload=latency
//   imcasim --system=gluster --clients=8 --workload=iozone --file-mb=64
//   imcasim --system=lustre --ds=4 --cold --workload=shared
//   imcasim --system=nfs --transport=gige --workload=iozone --clients=4
//   imcasim --system=imca --mcds=2 --workload=stat --files=20000 --csv
//
// Run `imcasim --help` for every knob. A flag the chosen system or workload
// does not read exits 2 like a typo. All runs are deterministic.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/testbed.h"
#include "common/buffer.h"
#include "common/parse.h"
#include "common/table.h"
#include "imca/block_mapper.h"
#include "workload/iozone.h"
#include "workload/latency_bench.h"
#include "workload/stat_bench.h"

namespace {

using namespace imca;

struct Options {
  std::string system = "imca";     // imca | gluster | lustre | nfs
  std::string workload = "latency";  // latency | stat | iozone | shared
  std::string transport = "ipoib";   // ipoib | rdma | gige (fabric-wide)
  std::size_t clients = 4;
  std::size_t mcds = 2;           // imca only
  std::size_t bricks = 1;         // imca/gluster: distribute groups
  std::size_t replicas = 1;       // imca/gluster: AFR replicas per group
  std::size_t ds = 1;             // lustre only
  std::uint64_t block = 2 * kKiB; // IMCa block size
  std::string hash = "crc32";     // crc32 | modulo | consistent
  bool threaded = false;          // SMCache worker thread
  bool rdma_cache = false;        // verbs path to the MCDs
  bool no_partial_hit = false;    // paper baseline: forward on any miss
  bool cold = false;              // lustre: unmount before reads
  std::uint64_t max_record = 64 * kKiB;
  std::size_t records = 128;
  std::size_t files = 4096;       // stat workload
  std::uint64_t file_mb = 32;     // iozone
  std::uint64_t mcd_mb = 0;       // 0 = default 6 GB
  std::uint64_t server_cache_mb = 0;  // 0 = default
  bool csv = false;

  // --- MCD fault plan (imca only; DESIGN.md §5d) ---
  std::uint64_t fault_seed = 1;
  double fault_drop = 0;     // P(request lost before the daemon sees it)
  double fault_timeout = 0;  // P(reply lost after the daemon executed)
  double fault_slow = 0;     // P(reply delayed by --fault-slow-ms)
  double fault_short = 0;    // P(reply truncated to a strict prefix)
  std::uint64_t fault_slow_ms = 2;
  std::vector<net::CrashEvent> crashes;  // --crash-mcd=i@ms[:ms]
  // ~0 = auto: 2 ms whenever any fault flag is present, otherwise off.
  std::uint64_t mcd_timeout_ms = ~0ull;

  // --- durable write-back (imca only; DESIGN.md §5j) ---
  bool writeback = false;          // absorb writes into the MCD tier
  std::size_t wb_replicas = 2;     // K dirty copies per absorbed write
  std::size_t wb_quorum = 2;       // MCD acks required before the write acks
  std::uint64_t wb_flush_delay_ms = 0;  // coalescing window (--wb-flush-delay)

  // --- file-server fault plan (imca/gluster; DESIGN.md §5f) ---
  std::vector<net::ServerCrashEvent> server_crashes;  // --crash-server=ms[:ms]
  std::uint64_t server_slow_ms = 0;        // --server-slow=MS

  std::set<std::string> given;  // every flag named on the command line

  bool any_fault() const {
    return fault_drop > 0 || fault_timeout > 0 || fault_slow > 0 ||
           fault_short > 0 || !crashes.empty();
  }
  bool any_server_fault() const {
    return !server_crashes.empty() || server_slow_ms > 0;
  }
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      code ? stderr : stdout,
      "imcasim — drive the IMCa reproduction testbeds from the shell\n"
      "\n"
      "  --system=imca|gluster|lustre|nfs   file system under test\n"
      "  --workload=latency|stat|iozone|shared\n"
      "  --transport=ipoib|rdma|gige        fabric transport (default ipoib)\n"
      "  --clients=N                        client nodes (default 4)\n"
      "  --mcds=N          cache daemons (imca; default 2)\n"
      "  --bricks=N        distribute groups (imca/gluster; default 1)\n"
      "  --replicas=K      AFR replicas per group (imca/gluster; default 1;\n"
      "                    the grid runs N*K brick servers)\n"
      "  --ds=N            data servers (lustre; default 1)\n"
      "  --block=BYTES     IMCa block size, 1..%llu (default 2048)\n"
      "  --hash=crc32|modulo|consistent     key->MCD placement\n"
      "  --threaded        SMCache worker-thread updates\n"
      "  --rdma-cache      reach the MCDs over native verbs\n"
      "  --no-partial-hit  forward whole reads on any block miss (paper)\n"
      "  --cold            lustre: drop client caches before reads\n"
      "  --max-record=BYTES  latency sweep ceiling (default 65536)\n"
      "  --records=N         records per size (default 128)\n"
      "  --files=N           stat workload file count (default 4096)\n"
      "  --file-mb=N         iozone per-client file size (default 32)\n"
      "  --mcd-mb=N          per-daemon memory (default 6144)\n"
      "  --server-cache-mb=N server page cache\n"
      "  --csv               machine-readable tables\n"
      "\n"
      "MCD fault injection (imca only; all runs stay deterministic):\n"
      "  --fault-seed=N      PRNG seed for the per-call fault draws\n"
      "  --fault-drop=P      drop requests (no daemon side effect)\n"
      "  --fault-timeout=P   drop replies (side effect applied, reply lost)\n"
      "  --fault-slow=P      delay replies by --fault-slow-ms (default 2)\n"
      "  --fault-short=P     truncate replies (torn protocol frames)\n"
      "  --crash-mcd=i@ms[:ms]  kill daemon i at `ms`, optionally restart\n"
      "                      at the second `ms` (repeatable)\n"
      "  --mcd-timeout-ms=N  per-op MCD deadline; defaults to 2 when any\n"
      "                      fault flag is given, 0 (off) otherwise\n"
      "\n"
      "file-server fault injection (imca and gluster; DESIGN.md §5f):\n"
      "  --crash-server=ms[:ms]  kill the brick at `ms`, optionally restart\n"
      "                      at the second `ms` (repeatable); arms the\n"
      "                      client deadline/retry/replay machinery\n"
      "  --crash-brick=i@ms[:ms]  kill brick i of the grid (row-major:\n"
      "                      group g, replica r is i = g*K + r) at `ms`,\n"
      "                      optionally restart (repeatable)\n"
      "  --server-slow=MS    ~35%% of brick replies crawl in MS late —\n"
      "                      forces attempt timeouts and replay dedup\n"
      "  --writeback         absorb writes into the MCD tier: K-way dirty\n"
      "                      replication, epoch-ordered background flush\n"
      "                      (imca; arms the 2 ms MCD deadline by default)\n"
      "  --wb-replicas=K     dirty copies per absorbed write (default 2)\n"
      "  --wb-quorum=K       MCD acks required before a write acks, >= 1\n"
      "                      (default 2; short of it, writes degrade to\n"
      "                      write-through and are counted)\n"
      "  --wb-flush-delay=MS coalescing window before a path's first flush\n"
      "                      pass (barriers bypass it; default 0)\n",
      static_cast<unsigned long long>(core::BlockMapper::kMaxBlockSize));
  std::exit(code);
}

std::optional<std::string> flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::string(arg + n + 1);
  }
  return std::nullopt;
}

// A crash window, "ms[:ms]" (crash, then optional restart), prefixed by the
// crashed element's index as "i@" when `index` is non-null.
bool parse_crash(std::string_view text, std::size_t* index, SimTime& at,
                 std::optional<SimTime>& restart_at) {
  // Milliseconds as a SimTime, if they parse whole and the product fits.
  const auto ms = [](std::string_view t) -> std::optional<SimTime> {
    const auto v = parse_number<SimTime>(t);
    if (!v || *v > std::numeric_limits<SimTime>::max() / kMilli) return {};
    return *v * kMilli;
  };
  if (index != nullptr) {
    const std::size_t sep = text.find('@');
    const auto i = parse_number<std::size_t>(text.substr(0, sep));
    if (sep == std::string_view::npos || !i) return false;
    *index = *i;
    text.remove_prefix(sep + 1);
  }
  const std::size_t colon = text.find(':');
  const auto crash = ms(text.substr(0, colon));
  if (!crash) return false;
  at = *crash;
  if (colon == std::string_view::npos) return true;
  restart_at = ms(text.substr(colon + 1));
  return restart_at.has_value();
}

// A flag the run never reads would print output byte-identical to the run
// without it; refuse it instead of letting it pose as a setting.
void reject_unread_flags(const Options& o) {
  const bool imca = o.system == "imca";
  const bool latency = o.workload == "latency" || o.workload == "shared";
  struct Rule {
    std::vector<const char*> flags;
    bool read;
    const char* needs;
  };
  const Rule rules[] = {
      {{"--mcds"}, imca, "--system=imca"},
      {{"--block", "--hash", "--threaded", "--rdma-cache", "--no-partial-hit",
        "--mcd-mb", "--mcd-timeout-ms", "--fault-drop", "--fault-timeout",
        "--fault-slow", "--fault-short", "--crash-mcd", "--writeback"},
       imca && o.mcds > 0,
       "--system=imca with at least one MCD"},
      {{"--bricks", "--replicas", "--crash-server", "--crash-brick",
        "--server-slow"},
       imca || o.system == "gluster",
       "--system=imca or --system=gluster"},
      {{"--ds", "--cold"}, o.system == "lustre", "--system=lustre"},
      {{"--fault-seed"}, o.any_fault() || o.any_server_fault(),
       "a fault flag"},
      {{"--fault-slow-ms"}, o.fault_slow > 0, "--fault-slow"},
      {{"--wb-replicas", "--wb-quorum", "--wb-flush-delay"}, o.writeback,
       "--writeback"},
      {{"--max-record", "--records"}, latency,
       "--workload=latency or --workload=shared"},
      {{"--files"}, o.workload == "stat", "--workload=stat"},
      {{"--file-mb"}, o.workload == "iozone", "--workload=iozone"},
      {{"--cold"}, latency || o.workload == "iozone",
       "--workload=latency, shared or iozone"},
  };
  for (const Rule& rule : rules) {
    if (rule.read) continue;
    for (const char* flag : rule.flags) {
      if (o.given.count(flag) != 0) {
        std::fprintf(stderr, "%s needs %s\n\n", flag, rule.needs);
        usage(2);
      }
    }
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) usage(0);
    o.given.insert(std::string(a, std::strcspn(a, "=")));
    if (!std::strcmp(a, "--threaded")) { o.threaded = true; continue; }
    if (!std::strcmp(a, "--rdma-cache")) { o.rdma_cache = true; continue; }
    if (!std::strcmp(a, "--no-partial-hit")) { o.no_partial_hit = true; continue; }
    if (!std::strcmp(a, "--writeback")) { o.writeback = true; continue; }
    if (!std::strcmp(a, "--cold")) { o.cold = true; continue; }
    if (!std::strcmp(a, "--csv")) { o.csv = true; continue; }
    bool matched = false;
    const auto str = [&](const char* name, std::string& out) {
      if (auto v = flag_value(a, name)) { out = *v; matched = true; }
    };
    const auto num = [&](const char* name, auto& out) {
      if (auto v = flag_value(a, name)) {
        const auto n = parse_number<std::decay_t<decltype(out)>>(*v);
        if (!n) {
          std::fprintf(stderr, "%s wants a whole number, got '%s'\n", name,
                       v->c_str());
          usage(2);
        }
        out = *n;
        matched = true;
      }
    };
    const auto prob = [&](const char* name, double& out) {
      if (auto v = flag_value(a, name)) {
        const auto p = parse_number<double>(*v);
        if (!p || !(*p >= 0.0 && *p <= 1.0)) {  // NaN fails too
          std::fprintf(stderr, "%s wants a probability in [0,1]\n", name);
          usage(2);
        }
        out = *p;
        matched = true;
      }
    };
    if (auto v = flag_value(a, "--crash-mcd")) {
      net::CrashEvent ev;
      if (!parse_crash(*v, &ev.mcd, ev.at, ev.restart_at)) {
        std::fprintf(stderr, "--crash-mcd wants i@ms[:ms]\n");
        usage(2);
      }
      o.crashes.push_back(ev);
      continue;
    }
    if (auto v = flag_value(a, "--crash-brick")) {
      net::ServerCrashEvent ev;
      if (!parse_crash(*v, &ev.brick, ev.at, ev.restart_at)) {
        std::fprintf(stderr, "--crash-brick wants i@ms[:ms]\n");
        usage(2);
      }
      o.server_crashes.push_back(ev);
      continue;
    }
    if (auto v = flag_value(a, "--crash-server")) {
      net::ServerCrashEvent ev;
      if (!parse_crash(*v, nullptr, ev.at, ev.restart_at)) {
        std::fprintf(stderr, "--crash-server wants ms[:ms]\n");
        usage(2);
      }
      o.server_crashes.push_back(ev);
      continue;
    }
    str("--system", o.system);
    str("--workload", o.workload);
    str("--transport", o.transport);
    str("--hash", o.hash);
    num("--clients", o.clients);
    num("--mcds", o.mcds);
    num("--bricks", o.bricks);
    num("--replicas", o.replicas);
    num("--ds", o.ds);
    num("--block", o.block);
    num("--max-record", o.max_record);
    num("--records", o.records);
    num("--files", o.files);
    num("--file-mb", o.file_mb);
    num("--mcd-mb", o.mcd_mb);
    num("--server-cache-mb", o.server_cache_mb);
    num("--fault-seed", o.fault_seed);
    num("--fault-slow-ms", o.fault_slow_ms);
    num("--mcd-timeout-ms", o.mcd_timeout_ms);
    num("--server-slow", o.server_slow_ms);
    num("--wb-replicas", o.wb_replicas);
    num("--wb-quorum", o.wb_quorum);
    num("--wb-flush-delay", o.wb_flush_delay_ms);
    prob("--fault-drop", o.fault_drop);
    prob("--fault-timeout", o.fault_timeout);
    prob("--fault-slow", o.fault_slow);
    prob("--fault-short", o.fault_short);
    if (!matched) {
      std::fprintf(stderr, "unknown flag: %s\n\n", a);
      usage(2);
    }
  }
  reject_unread_flags(o);
  if (o.clients == 0) usage(2);
  if (o.ds == 0) {
    std::fprintf(stderr, "--ds wants a value >= 1\n");
    usage(2);
  }
  if (o.block == 0 || o.block > core::BlockMapper::kMaxBlockSize) {
    // A block plus its key and item header must fit one memcached item.
    std::fprintf(
        stderr, "--block wants 1..%llu bytes\n",
        static_cast<unsigned long long>(core::BlockMapper::kMaxBlockSize));
    usage(2);
  }
  if (o.wb_quorum == 0) {
    // Write-back acks once this many daemons stored the write; 0 would ack
    // a write that no daemon holds.
    std::fprintf(stderr, "--wb-quorum wants a value >= 1\n");
    usage(2);
  }
  return o;
}

net::TransportParams transport_of(const Options& o) {
  if (o.transport == "rdma") return net::ib_rdma();
  if (o.transport == "gige") return net::gige();
  if (o.transport == "ipoib") return net::ipoib_rc();
  std::fprintf(stderr, "unknown transport: %s\n", o.transport.c_str());
  usage(2);
}

core::HashScheme hash_of(const Options& o) {
  if (o.hash == "crc32") return core::HashScheme::kCrc32;
  if (o.hash == "modulo") return core::HashScheme::kModulo;
  if (o.hash == "consistent") return core::HashScheme::kConsistent;
  std::fprintf(stderr, "unknown hash: %s\n", o.hash.c_str());
  usage(2);
}

// Any of the four systems: the testbed that was built, plus the simulation
// and the clients every workload drives, whichever testbed that is.
struct Rig {
  std::unique_ptr<cluster::GlusterTestbed> gluster;
  std::unique_ptr<cluster::LustreTestbed> lustre;
  std::unique_ptr<cluster::NfsTestbed> nfs;
  net::SimContext* sim = nullptr;
  std::vector<fsapi::FileSystemClient*> clients;
};

Rig build(const Options& o) {
  Rig rig;
  const auto adopt = [&rig](const auto& tb) {
    rig.sim = tb.get();
    rig.clients = tb->clients();
  };
  if (o.system == "imca" || o.system == "gluster") {
    cluster::GlusterTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.n_mcds = o.system == "imca" ? o.mcds : 0;
    if (o.bricks == 0 || o.replicas == 0) {
      std::fprintf(stderr, "--bricks/--replicas want values >= 1\n");
      usage(2);
    }
    cfg.n_bricks = o.bricks;
    cfg.n_replicas = o.replicas;
    cfg.transport = transport_of(o);
    cfg.imca.block_size = o.block;
    cfg.imca.hash = hash_of(o);
    cfg.imca.threaded_updates = o.threaded;
    cfg.imca.rdma_cache_path = o.rdma_cache;
    cfg.imca.partial_hit_reads = !o.no_partial_hit;
    if (o.writeback) {
      cfg.imca.writeback = true;
      cfg.imca.wb_replicas = o.wb_replicas;
      cfg.imca.wb_quorum = o.wb_quorum;
      cfg.imca.wb_flush_delay = o.wb_flush_delay_ms * kMilli;
    }
    if (o.mcd_mb) cfg.mcd_memory = o.mcd_mb * kMiB;
    if (o.server_cache_mb) {
      cfg.server.page_cache_bytes = o.server_cache_mb * kMiB;
    }
    for (const auto& c : o.crashes) {
      if (c.mcd >= cfg.n_mcds) {
        std::fprintf(stderr, "--crash-mcd: daemon %zu out of range (%zu MCDs)\n",
                     c.mcd, cfg.n_mcds);
        usage(2);
      }
    }
    cfg.faults.seed = o.fault_seed;
    cfg.faults.spec.drop_request = o.fault_drop;
    cfg.faults.spec.drop_reply = o.fault_timeout;
    cfg.faults.spec.slow_reply = o.fault_slow;
    cfg.faults.spec.short_read = o.fault_short;
    cfg.faults.spec.slow_delay = o.fault_slow_ms * kMilli;
    cfg.faults.crashes = o.crashes;
    for (const auto& c : o.server_crashes) {
      if (c.brick >= o.bricks * o.replicas) {
        std::fprintf(stderr,
                     "--crash-brick: brick %zu out of range (%zux%zu grid)\n",
                     c.brick, o.bricks, o.replicas);
        usage(2);
      }
    }
    cfg.faults.server_crashes = o.server_crashes;
    if (o.server_slow_ms > 0) {
      cfg.faults.server_spec.slow_reply = 0.35;
      cfg.faults.server_spec.slow_delay = o.server_slow_ms * kMilli;
    }
    if (o.any_server_fault()) {
      // Brick faults without retries surface as hard workload errors; arm
      // the deadline/retry/replay machinery with the fault-matrix policy.
      // The attempt timeout must clear one cold disk access (~12 ms).
      // A replicated mount is SUPPOSED to give up on a dead minority and
      // commit on the survivors, so it runs the brick-matrix deadline
      // instead of riding whole crash windows out on retries.
      cfg.client.op_deadline = o.replicas > 1 ? 60 * kMilli : 400 * kMilli;
      cfg.client.attempt_timeout = o.replicas > 1 ? 20 * kMilli : 40 * kMilli;
      cfg.client.backoff_base = 1 * kMilli;
      cfg.client.backoff_cap = 8 * kMilli;
      cfg.client.eject_after = 3;
      cfg.client.probe_interval = 5 * kMilli;
    }
    if (o.mcd_timeout_ms != ~0ull) {
      cfg.imca.mcd_op_timeout = o.mcd_timeout_ms * kMilli;
    } else if (cfg.faults.active() || o.writeback) {
      // Faults without a deadline would ride the transport's 200 ms give-up;
      // arm the failover machinery with a sane default instead.
      cfg.imca.mcd_op_timeout = 2 * kMilli;
    }
    adopt(rig.gluster = std::make_unique<cluster::GlusterTestbed>(cfg));
  } else if (o.system == "lustre") {
    cluster::LustreTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.n_ds = o.ds;
    cfg.transport = transport_of(o);
    if (o.server_cache_mb) cfg.ds.page_cache_bytes = o.server_cache_mb * kMiB;
    adopt(rig.lustre = std::make_unique<cluster::LustreTestbed>(cfg));
  } else if (o.system == "nfs") {
    cluster::NfsTestbedConfig cfg;
    cfg.n_clients = o.clients;
    cfg.transport = transport_of(o);
    if (o.server_cache_mb) {
      cfg.server.page_cache_bytes = o.server_cache_mb * kMiB;
    }
    adopt(rig.nfs = std::make_unique<cluster::NfsTestbed>(cfg));
  } else {
    std::fprintf(stderr, "unknown system: %s\n", o.system.c_str());
    usage(2);
  }
  return rig;
}

void print_table(const Table& t, const Options& o) {
  if (o.csv) {
    t.print_csv();
  } else {
    t.print();
  }
}

int run_latency(Rig& rig, const Options& o, bool shared) {
  workload::LatencyOptions opt;
  opt.max_record = o.max_record;
  opt.records_per_size = o.records;
  opt.shared_file = shared;
  if (o.cold && rig.lustre) {
    opt.before_read_phase = [&rig](std::size_t) { rig.lustre->cold_all(); };
  }
  const auto series =
      workload::run_latency_benchmark(rig.sim->loop(), rig.clients, opt);
  Table t({"record_bytes", "read_us", "write_us"});
  for (const auto& [r, read_ns] : series.read_ns) {
    const auto w = series.write_ns.find(r);
    t.add_row({Table::cell(r), Table::cell(read_ns / 1e3),
               w == series.write_ns.end() ? "-" : Table::cell(w->second / 1e3)});
  }
  print_table(t, o);
  return 0;
}

int run_stat(Rig& rig, const Options& o) {
  workload::StatOptions opt;
  opt.n_files = o.files;
  const auto r =
      workload::run_stat_benchmark(rig.sim->loop(), rig.clients, opt);
  Table t({"metric", "value"});
  t.add_row({"files", Table::cell(static_cast<std::uint64_t>(o.files))});
  t.add_row({"clients", Table::cell(static_cast<std::uint64_t>(o.clients))});
  t.add_row({"total_stats", Table::cell(r.total_stats)});
  t.add_row({"max_node_seconds", Table::cell(r.max_node_seconds, 4)});
  t.add_row({"stats_per_second",
             Table::cell(static_cast<double>(r.total_stats) /
                             r.max_node_seconds,
                         0)});
  print_table(t, o);
  return 0;
}

int run_iozone(Rig& rig, const Options& o) {
  workload::IozoneOptions opt;
  opt.file_bytes = o.file_mb * kMiB;
  if (o.cold && rig.lustre) {
    opt.before_read_phase = [&rig](std::size_t) { rig.lustre->cold_all(); };
  }
  const auto r = workload::run_iozone(rig.sim->loop(), rig.clients, opt);
  Table t({"metric", "value"});
  t.add_row({"threads", Table::cell(static_cast<std::uint64_t>(o.clients))});
  t.add_row({"file_mb_per_thread",
             Table::cell(static_cast<std::uint64_t>(o.file_mb))});
  t.add_row({"write_MBps", Table::cell(r.aggregate_write_mbps, 1)});
  t.add_row({"read_MBps", Table::cell(r.aggregate_read_mbps, 1)});
  print_table(t, o);
  return 0;
}

void print_cache_report(Rig& rig) {
  if (!rig.gluster || !rig.gluster->imca_enabled()) return;
  const auto totals = rig.gluster->mcd_totals();
  std::printf("# MCD bank: gets=%llu hits=%llu misses=%llu evictions=%llu"
              " items=%llu bytes=%llu\n",
              static_cast<unsigned long long>(totals.cmd_get),
              static_cast<unsigned long long>(totals.get_hits),
              static_cast<unsigned long long>(totals.get_misses),
              static_cast<unsigned long long>(totals.evictions),
              static_cast<unsigned long long>(totals.curr_items),
              static_cast<unsigned long long>(totals.bytes));
  core::CmCacheStats cm;
  for (std::size_t i = 0; i < rig.gluster->n_clients(); ++i) {
    const auto& s = rig.gluster->cmcache(i).stats();
    cm.stat_hits += s.stat_hits;
    cm.stat_misses += s.stat_misses;
    cm.reads_from_cache += s.reads_from_cache;
    cm.reads_partial += s.reads_partial;
    cm.reads_forwarded += s.reads_forwarded;
    cm.range_fetches += s.range_fetches;
    cm.blocks_repaired += s.blocks_repaired;
    cm.coalesced_waiters += s.coalesced_waiters;
  }
  std::printf("# CMCache: from_cache=%llu partial=%llu forwarded=%llu"
              " range_fetches=%llu repaired=%llu coalesced=%llu"
              " stat_hits=%llu stat_misses=%llu\n",
              static_cast<unsigned long long>(cm.reads_from_cache),
              static_cast<unsigned long long>(cm.reads_partial),
              static_cast<unsigned long long>(cm.reads_forwarded),
              static_cast<unsigned long long>(cm.range_fetches),
              static_cast<unsigned long long>(cm.blocks_repaired),
              static_cast<unsigned long long>(cm.coalesced_waiters),
              static_cast<unsigned long long>(cm.stat_hits),
              static_cast<unsigned long long>(cm.stat_misses));

  if (const auto* inj = rig.gluster->fault_injector()) {
    const auto& fs = inj->stats();
    std::printf("# faults injected: drop_req=%llu drop_reply=%llu"
                " slow=%llu short=%llu clean_calls=%llu\n",
                static_cast<unsigned long long>(fs.drops_request),
                static_cast<unsigned long long>(fs.drops_reply),
                static_cast<unsigned long long>(fs.slow_replies),
                static_cast<unsigned long long>(fs.short_reads),
                static_cast<unsigned long long>(fs.clean_calls));
    core::FaultStats deg;
    mcclient::ClientStats cl;
    for (std::size_t i = 0; i < rig.gluster->n_clients(); ++i) {
      const auto& f = rig.gluster->cmcache(i).fault_stats();
      deg.degraded_reads += f.degraded_reads;
      deg.degraded_stats += f.degraded_stats;
      deg.repairs_dropped += f.repairs_dropped;
      deg.repairs_skipped_stale += f.repairs_skipped_stale;
      const auto& s = rig.gluster->cmcache(i).mcds().stats();
      cl.timeouts += s.timeouts;
      cl.truncated_replies += s.truncated_replies;
      cl.retries += s.retries;
      cl.ejections += s.ejections;
      cl.rejoins += s.rejoins;
      cl.dead_server_ops += s.dead_server_ops;
    }
    std::printf("# degraded: reads=%llu stats=%llu repairs_dropped=%llu"
                " repairs_stale=%llu timeouts=%llu torn=%llu retries=%llu"
                " ejections=%llu rejoins=%llu dead_ops=%llu\n",
                static_cast<unsigned long long>(deg.degraded_reads),
                static_cast<unsigned long long>(deg.degraded_stats),
                static_cast<unsigned long long>(deg.repairs_dropped),
                static_cast<unsigned long long>(deg.repairs_skipped_stale),
                static_cast<unsigned long long>(cl.timeouts),
                static_cast<unsigned long long>(cl.truncated_replies),
                static_cast<unsigned long long>(cl.retries),
                static_cast<unsigned long long>(cl.ejections),
                static_cast<unsigned long long>(cl.rejoins),
                static_cast<unsigned long long>(cl.dead_server_ops));
  }
}

// The §5f drill readout: what the brick survived and what the replay
// machinery did about it. Printed only when a server-fault flag armed it.
void print_server_fault_report(Rig& rig, const Options& o) {
  if (!rig.gluster || !o.any_server_fault()) return;
  const auto ss = rig.gluster->server_totals();
  std::printf("# brick faults: crashes=%llu restarts=%llu replies_lost=%llu"
              " sheds=%llu (admission=%llu expired=%llu io=%llu)\n",
              static_cast<unsigned long long>(ss.crashes),
              static_cast<unsigned long long>(ss.restarts),
              static_cast<unsigned long long>(ss.replies_lost_in_crash),
              static_cast<unsigned long long>(ss.sheds_admission +
                                              ss.sheds_expired + ss.sheds_io),
              static_cast<unsigned long long>(ss.sheds_admission),
              static_cast<unsigned long long>(ss.sheds_expired),
              static_cast<unsigned long long>(ss.sheds_io));
  gluster::ProtocolClientStats pc;
  for (std::size_t i = 0; i < rig.gluster->n_clients(); ++i) {
    const auto s = rig.gluster->gluster_client(i).protocol_totals();
    pc.retries += s.retries;
    pc.replays += s.replays;
    pc.timeouts += s.timeouts;
    pc.sheds_seen += s.sheds_seen;
    pc.deadline_exhausted += s.deadline_exhausted;
    if (s.max_op_elapsed > pc.max_op_elapsed) {
      pc.max_op_elapsed = s.max_op_elapsed;
    }
  }
  std::printf("# replay: retries=%llu replays=%llu deduped=%llu parked=%llu"
              " dup_applies=%llu timeouts=%llu sheds_seen=%llu"
              " deadline_exhausted=%llu max_op_ms=%.2f\n",
              static_cast<unsigned long long>(pc.retries),
              static_cast<unsigned long long>(pc.replays),
              static_cast<unsigned long long>(ss.replays_deduped),
              static_cast<unsigned long long>(ss.replays_parked),
              static_cast<unsigned long long>(ss.duplicate_applies),
              static_cast<unsigned long long>(pc.timeouts),
              static_cast<unsigned long long>(pc.sheds_seen),
              static_cast<unsigned long long>(pc.deadline_exhausted),
              static_cast<double>(pc.max_op_elapsed) / kMilli);
  if (rig.gluster->imca_enabled()) {
    unsigned long long serves = 0, bypass = 0;
    for (std::size_t i = 0; i < rig.gluster->n_clients(); ++i) {
      const auto& f = rig.gluster->cmcache(i).fault_stats();
      serves += f.brownout_serves;
      bypass += f.brownout_stale_bypass;
    }
    std::printf("# brownout: serves=%llu stale_bypass=%llu\n", serves, bypass);
  }
}

// Grid drills (--bricks/--replicas > 1): what the cluster translators did —
// quorum commits, read-child failover, self-heal traffic — summed over every
// mount's replicate groups, plus a per-brick fop/crash breakdown.
void print_grid_report(Rig& rig, const Options& o) {
  if (!rig.gluster || (o.bricks == 1 && o.replicas == 1)) return;
  if (o.replicas > 1) {
    gluster::ReplicateStats rs;
    for (std::size_t c = 0; c < rig.gluster->n_clients(); ++c) {
      rs += rig.gluster->gluster_client(c).replicate_totals();
    }
    std::printf("# replicate: mutations=%llu short_writes=%llu"
                " partial_acks=%llu switches=%llu degraded=%llu"
                " heals=%llu heal_bytes=%llu\n",
                static_cast<unsigned long long>(rs.mutations),
                static_cast<unsigned long long>(rs.quorum_short_writes),
                static_cast<unsigned long long>(rs.partial_acks),
                static_cast<unsigned long long>(rs.read_child_switches),
                static_cast<unsigned long long>(rs.reads_degraded),
                static_cast<unsigned long long>(rs.heals_completed),
                static_cast<unsigned long long>(rs.heal_bytes_copied));
  }
  for (std::size_t b = 0; b < rig.gluster->n_brick_servers(); ++b) {
    const auto s = rig.gluster->brick(b).stats();
    std::printf("# brick %zu.%zu: fops=%llu crashes=%llu restarts=%llu\n",
                b / o.replicas, b % o.replicas,
                static_cast<unsigned long long>(s.fops),
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.restarts));
  }
}

}  // namespace

void print_writeback_report(Rig& rig, const Options& o) {
  if (!o.writeback || !rig.gluster) return;
  const auto wb = rig.gluster->writeback_totals();
  std::printf("# writeback: absorbed=%llu absorbed_bytes=%llu flushed=%llu"
              " lost=%llu degraded=%llu sheds=%llu retries=%llu"
              " requeues=%llu overlay_reads=%llu\n",
              static_cast<unsigned long long>(wb.absorbed),
              static_cast<unsigned long long>(wb.absorbed_bytes),
              static_cast<unsigned long long>(wb.flushed_extents),
              static_cast<unsigned long long>(wb.lost_extents),
              static_cast<unsigned long long>(wb.degraded_writes),
              static_cast<unsigned long long>(wb.backpressure_sheds),
              static_cast<unsigned long long>(wb.flush_retries),
              static_cast<unsigned long long>(wb.flush_requeues),
              static_cast<unsigned long long>(wb.overlay_reads));
}

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Rig rig = build(o);

  std::printf("# system=%s workload=%s transport=%s clients=%zu",
              o.system.c_str(), o.workload.c_str(), o.transport.c_str(),
              o.clients);
  if (o.system == "imca") {
    std::printf(" mcds=%zu block=%llu hash=%s%s%s", o.mcds,
                static_cast<unsigned long long>(o.block), o.hash.c_str(),
                o.threaded ? " threaded" : "",
                o.rdma_cache ? " rdma-cache" : "");
  }
  if (o.system == "lustre") {
    std::printf(" ds=%zu%s", o.ds, o.cold ? " cold" : "");
  }
  if ((o.system == "imca" || o.system == "gluster") &&
      (o.bricks > 1 || o.replicas > 1)) {
    std::printf(" bricks=%zux%zu", o.bricks, o.replicas);
  }
  std::printf("\n");

  int rc = 2;
  if (o.workload == "latency") {
    rc = run_latency(rig, o, /*shared=*/false);
  } else if (o.workload == "shared") {
    rc = run_latency(rig, o, /*shared=*/true);
  } else if (o.workload == "stat") {
    rc = run_stat(rig, o);
  } else if (o.workload == "iozone") {
    rc = run_iozone(rig, o);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    usage(2);
  }
  print_cache_report(rig);
  print_writeback_report(rig, o);
  print_server_fault_report(rig, o);
  print_grid_report(rig, o);
  const BufferStats& bs = buffer_stats();
  std::printf("# copy_ledger: segments=%llu segment_bytes=%llu"
              " bytes_copied=%llu gathers=%llu slices=%llu\n",
              static_cast<unsigned long long>(bs.segments_allocated),
              static_cast<unsigned long long>(bs.segment_bytes),
              static_cast<unsigned long long>(bs.bytes_copied),
              static_cast<unsigned long long>(bs.gather_calls),
              static_cast<unsigned long long>(bs.view_slices));
  std::printf("# simulated_time=%s\n",
              format_duration(static_cast<double>(rig.sim->loop().now()))
                  .c_str());
  return rc;
}
