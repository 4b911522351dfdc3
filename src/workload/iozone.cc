#include "workload/iozone.h"

#include <algorithm>
#include <cassert>

#include "sim/sync.h"

namespace imca::workload {
namespace {

// Client i's file is kFilePrefix + i.
constexpr char kFilePrefix[] = "/bench/iozone/f";

struct Shared {
  SimTime write_start = 0;
  SimTime write_end = 0;
  SimTime read_start = 0;
  SimTime read_end = 0;
  std::uint64_t bytes_read = 0;
};

sim::Task<void> iozone_client(sim::EventLoop& loop,
                              fsapi::FileSystemClient& fs, std::size_t index,
                              IozoneOptions opt, sim::Barrier& barrier,
                              Shared& sh) {
  const std::string path = kFilePrefix + std::to_string(index);
  auto f = co_await fs.create(path);
  assert(f.has_value());

  // Workload edge: generate the record bytes once and adopt them into one
  // refcounted segment; every write passes views of it.
  std::vector<std::byte> pattern(opt.request_size);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>((index * 101 + i) & 0xFF);
  }
  const Buffer buffer = Buffer::take(std::move(pattern));

  co_await barrier.arrive_and_wait();
  sh.write_start = loop.now();
  for (std::uint64_t off = 0; off < opt.file_bytes; off += opt.request_size) {
    auto w = co_await fs.write(*f, off, buffer);
    assert(w.has_value());
    (void)w;
  }
  co_await barrier.arrive_and_wait();
  sh.write_end = std::max(sh.write_end, loop.now());
  if (opt.before_read_phase) opt.before_read_phase(index);

  co_await barrier.arrive_and_wait();
  sh.read_start = loop.now();
  for (std::uint64_t off = 0; off < opt.file_bytes; off += opt.request_size) {
    auto data = co_await fs.read(*f, off, opt.request_size);
    assert(data.has_value());
    assert(data->size() == opt.request_size);
    sh.bytes_read += data->size();
  }
  sh.read_end = std::max(sh.read_end, loop.now());
  co_await barrier.arrive_and_wait();
}

}  // namespace

IozoneResult run_iozone(sim::EventLoop& loop,
                        const std::vector<fsapi::FileSystemClient*>& clients,
                        const IozoneOptions& options) {
  assert(!clients.empty());
  Shared sh;
  sim::Barrier barrier(loop, clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    loop.spawn(iozone_client(loop, *clients[c], c, options, barrier, sh));
  }
  loop.run();

  IozoneResult result;
  result.bytes_read = sh.bytes_read;
  const double write_bytes = static_cast<double>(options.file_bytes) *
                             static_cast<double>(clients.size());
  if (sh.write_end > sh.write_start) {
    result.aggregate_write_mbps =
        write_bytes / static_cast<double>(kMiB) /
        to_seconds(sh.write_end - sh.write_start);
  }
  if (sh.read_end > sh.read_start) {
    result.aggregate_read_mbps =
        static_cast<double>(sh.bytes_read) / static_cast<double>(kMiB) /
        to_seconds(sh.read_end - sh.read_start);
  }
  return result;
}

}  // namespace imca::workload
