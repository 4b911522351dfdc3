#include "workload/latency_bench.h"

#include <cassert>

#include "sim/sync.h"

namespace imca::workload {
namespace {

// Client i's file is kFileDir + "/c<i>"; the shared-mode file is
// kFileDir + "/shared".
constexpr char kFileDir[] = "/bench/lat";

// Accumulates per-record-size sums across clients; single-threaded
// simulation, so plain members suffice.
struct Accumulator {
  std::map<std::uint64_t, MeanAccum> write;
  std::map<std::uint64_t, MeanAccum> read;
};

Buffer make_record(std::uint64_t size, std::uint64_t salt) {
  std::vector<std::byte> data(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((salt * 131 + i * 7 + 3) & 0xFF);
  }
  // Workload edge: one segment per record size; writes pass shared views.
  return Buffer::take(std::move(data));
}

sim::Task<void> client_body(sim::EventLoop& loop,
                            fsapi::FileSystemClient& fs,
                            std::size_t client_index,
                            LatencyOptions opt, sim::Barrier& barrier,
                            Accumulator& acc) {
  const bool is_root = client_index == 0;
  const std::string dir = kFileDir;
  const std::string path = opt.shared_file
                               ? dir + "/shared"
                               : dir + "/c" + std::to_string(client_index);

  // --- setup: root creates the shared file; everyone else opens it.
  fsapi::OpenFile file{};
  if (!opt.shared_file || is_root) {
    auto f = co_await fs.create(path);
    assert(f.has_value());
    file = *f;
  }
  co_await barrier.arrive_and_wait();
  if (opt.shared_file && !is_root) {
    auto f = co_await fs.open(path);
    assert(f.has_value());
    file = *f;
  }
  co_await barrier.arrive_and_wait();

  // --- write phase ---
  for (std::uint64_t r = opt.min_record; r <= opt.max_record;
       r *= opt.record_multiplier) {
    co_await barrier.arrive_and_wait();
    if (!opt.shared_file || is_root) {
      const auto record = make_record(r, client_index);
      MeanAccum local;
      for (std::size_t i = 0; i < opt.records_per_size; ++i) {
        const SimTime t0 = loop.now();
        auto w = co_await fs.write(file, static_cast<std::uint64_t>(i) * r,
                                   record);
        assert(w.has_value());
        (void)w;
        local.add(static_cast<double>(loop.now() - t0));
      }
      if (opt.measure_writes) acc.write[r].add(local.mean());
    }
  }
  co_await barrier.arrive_and_wait();
  if (opt.before_read_phase) opt.before_read_phase(client_index);
  co_await barrier.arrive_and_wait();

  // --- read phase: back to the beginning of the file ---
  for (std::uint64_t r = opt.min_record; r <= opt.max_record;
       r *= opt.record_multiplier) {
    co_await barrier.arrive_and_wait();
    MeanAccum local;
    for (std::size_t i = 0; i < opt.records_per_size; ++i) {
      const SimTime t0 = loop.now();
      auto data = co_await fs.read(file, static_cast<std::uint64_t>(i) * r, r);
      assert(data.has_value());
      assert(data->size() == r);
      (void)data;
      local.add(static_cast<double>(loop.now() - t0));
    }
    acc.read[r].add(local.mean());
  }
  co_await barrier.arrive_and_wait();
}

}  // namespace

LatencySeries run_latency_benchmark(
    sim::EventLoop& loop, const std::vector<fsapi::FileSystemClient*>& clients,
    const LatencyOptions& options) {
  assert(!clients.empty());
  Accumulator acc;
  sim::Barrier barrier(loop, clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    loop.spawn(client_body(loop, *clients[c], c, options, barrier, acc));
  }
  loop.run();

  LatencySeries out;
  for (const auto& [r, m] : acc.write) out.write_ns[r] = m.mean();
  for (const auto& [r, m] : acc.read) out.read_ns[r] = m.mean();
  return out;
}

}  // namespace imca::workload
