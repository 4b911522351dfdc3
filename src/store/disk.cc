#include "store/disk.h"

#include <algorithm>

namespace imca::store {

SimDuration DiskModel::service_time(std::uint64_t key, std::uint64_t offset,
                                    std::uint64_t bytes) {
  // Continue a tracked stream? (Move it to the front: recently-active
  // streams stay tracked.)
  bool sequential = false;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].first == key) {
      sequential = streams_[i].second == offset;
      streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  streams_.insert(streams_.begin(), {key, offset + bytes});
  if (streams_.size() > kMaxStreams) streams_.pop_back();

  SimDuration t =
      kDiskRequestOverhead + transfer_time(bytes, kDiskTransferBps);
  if (sequential) {
    ++sequential_;
  } else {
    ++seeks_;
    t += kDiskAvgSeek + kDiskHalfRotation;
  }
  return t;
}

SimTime DiskModel::reserve(std::uint64_t key, std::uint64_t offset,
                           std::uint64_t bytes) {
  return head_.reserve(service_time(key, offset, bytes));
}

RaidArray::RaidArray(sim::EventLoop& loop, std::size_t members,
                     std::uint64_t stripe_unit, std::string name)
    : loop_(loop), stripe_unit_(stripe_unit) {
  disks_.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    disks_.push_back(
        std::make_unique<DiskModel>(loop, name + ".d" + std::to_string(i)));
  }
}

SimTime RaidArray::reserve(std::uint64_t key, std::uint64_t offset,
                           std::uint64_t bytes) {
  const std::size_t members = disks_.size();
  if (bytes == 0) {
    // Metadata-only touch: charge one member the zero-length access (it
    // still pays overhead + seek when non-sequential).
    DiskModel& d = *disks_[offset / stripe_unit_ % members];
    return d.reserve(key, offset, 0);
  }

  // Book each stripe portion on its member disk at the disk's *physical*
  // offset (logical units 0, M, 2M… of member 0 are contiguous on its
  // platter), so a logically sequential stream is sequential per disk.
  SimTime done = 0;
  std::uint64_t pos = offset;
  std::uint64_t left = bytes;
  while (left > 0) {
    const std::uint64_t unit = pos / stripe_unit_;
    const std::uint64_t within = pos % stripe_unit_;
    const std::uint64_t chunk = std::min(left, stripe_unit_ - within);
    DiskModel& d = *disks_[unit % members];
    const std::uint64_t phys = (unit / members) * stripe_unit_ + within;
    done = std::max(done, d.reserve(key, phys, chunk));
    pos += chunk;
    left -= chunk;
  }
  return done;
}

sim::Task<void> RaidArray::access(std::uint64_t key, std::uint64_t offset,
                                  std::uint64_t bytes) {
  co_await loop_.sleep_until(reserve(key, offset, bytes));
}

}  // namespace imca::store
