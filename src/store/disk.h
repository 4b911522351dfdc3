// Rotating-disk service time model and a RAID-0 array of such disks.
//
// The paper's GlusterFS server stores all files on "a RAID array of
// 8 HighPoint disks"; every effect the cache bank exploits comes from the
// gap between this array's behaviour and DRAM:
//   * random access pays seek + rotational latency (milliseconds),
//   * sequential streaming is fast per disk and scales with the array,
//   * one head per disk means deep queues under many clients.
//
// A request's service time is
//   overhead + (random ? avg_seek + half_rotation : 0) + bytes/transfer_rate
// where "random" is detected from the previous request's end offset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/resource.h"
#include "sim/task.h"

namespace imca::store {

// The member disk's service-time constants.
// Average head movement.
inline constexpr SimDuration kDiskAvgSeek = 8 * kMilli;
// 7200 rpm -> 8.3ms/rev.
inline constexpr SimDuration kDiskHalfRotation = 4 * kMilli;
// Media streaming rate.
inline constexpr std::uint64_t kDiskTransferBps = 100 * kMiB;
// Controller + command.
inline constexpr SimDuration kDiskRequestOverhead = 50 * kMicro;

class DiskModel {
 public:
  DiskModel(sim::EventLoop& loop, std::string name)
      : head_(loop, 1, std::move(name)) {}

  // Book an access without waiting; returns its completion time. `key`
  // identifies the extent (file id + offset) so sequential runs within one
  // stream are detected across interleaved requests from one client.
  SimTime reserve(std::uint64_t key, std::uint64_t offset, std::uint64_t bytes);

  // Queue an access and wait for it to complete.
  [[nodiscard]] auto access(std::uint64_t key, std::uint64_t offset,
                            std::uint64_t bytes) {
    return head_.use(service_time(key, offset, bytes));
  }

  sim::FifoResource& head() noexcept { return head_; }

  std::uint64_t seeks() const noexcept { return seeks_; }
  std::uint64_t sequential_hits() const noexcept { return sequential_; }

 private:
  SimDuration service_time(std::uint64_t key, std::uint64_t offset,
                           std::uint64_t bytes);

  sim::FifoResource head_;
  // Per-stream positions (bounded): an access continuing any tracked stream
  // counts as sequential, modelling NCQ + per-file readahead keeping several
  // interleaved sequential streams efficient. Beyond the bound, old streams
  // fall out and their next access seeks — as a real disk would.
  static constexpr std::size_t kMaxStreams = 32;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> streams_;  // key, end
  std::uint64_t seeks_ = 0;
  std::uint64_t sequential_ = 0;
};

// RAID-0: fixed stripe units round-robined across member disks. A request
// spanning several units queues each portion at its member disk; the request
// completes when the slowest portion lands. Streaming bandwidth therefore
// approaches members * per-disk rate, matching the motivation for parallel
// I/O in paper §3.
class RaidArray {
 public:
  RaidArray(sim::EventLoop& loop, std::size_t members,
            std::uint64_t stripe_unit = 64 * kKiB, std::string name = "raid");

  // Access `bytes` at `offset` of stream `key`; waits for completion.
  sim::Task<void> access(std::uint64_t key, std::uint64_t offset,
                         std::uint64_t bytes);

  // Book the access on the member disks without waiting; returns the
  // completion time of the slowest portion (write-back flush path).
  SimTime reserve(std::uint64_t key, std::uint64_t offset,
                  std::uint64_t bytes);

  std::size_t members() const noexcept { return disks_.size(); }
  std::uint64_t stripe_unit() const noexcept { return stripe_unit_; }
  DiskModel& disk(std::size_t i) { return *disks_.at(i); }

 private:
  sim::EventLoop& loop_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::uint64_t stripe_unit_;
};

}  // namespace imca::store
