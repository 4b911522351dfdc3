#include "gluster/protocol_client.h"

#include <algorithm>
#include <type_traits>

namespace imca::gluster {

namespace {

// Every one of these is safe to retry: kConnRefused and kBusy mean the op
// was NOT applied; the ambiguous ones (kTimedOut, kConnReset, kProto) are
// made safe for mutations by the brick's replay window.
bool retryable(Errc e) noexcept {
  return e == Errc::kTimedOut || e == Errc::kConnRefused ||
         e == Errc::kConnReset || e == Errc::kBusy || e == Errc::kProto;
}

}  // namespace

void ProtocolClient::mark_alive() {
  fail_streak_ = 0;
  if (down_) {
    down_ = false;
    ++stats_.rejoins;
  }
}

void ProtocolClient::note_failure() {
  ++fail_streak_;
  const SimTime now = loop().now();
  if (!down_ && fail_streak_ >= params_.eject_after) {
    down_ = true;
    down_since_ = now;
    ++stats_.ejections;
  }
  if (down_) next_probe_ = now + params_.probe_interval;
}

void ProtocolClient::note_elapsed(SimTime start) {
  const SimDuration elapsed = loop().now() - start;
  if (elapsed > stats_.max_op_elapsed) stats_.max_op_elapsed = elapsed;
}

sim::Task<Expected<FopReply>> ProtocolClient::attempt(FopRequest req,
                                                      SimDuration timeout) {
  ByteBuf encoded = req.encode();
  Expected<ByteBuf> wire = Errc::kTimedOut;
  if (timeout == 0) {
    wire = co_await rpc_.call(self_, server_, net::kPortGluster,
                              std::move(encoded));
  } else {
    wire = co_await rpc_.call_within(timeout, self_, server_,
                                     net::kPortGluster, std::move(encoded));
  }
  if (!wire) co_return wire.error();
  auto reply = FopReply::decode(*wire);
  if (!reply) co_return reply.error();
  co_return *reply;
}

sim::Task<Expected<FopReply>> ProtocolClient::roundtrip(FopRequest req) {
  ++stats_.fops;
  // Number the mutation ONCE per op: every retry re-sends the same
  // (client_id, op_seq), which is what the brick's dedup window keys on.
  if (mutation_fop(req.type)) {
    req.client_id = self_;
    req.op_seq = ++next_seq_;
  }
  if (params_.op_deadline == 0) {
    co_return co_await attempt(std::move(req), 0);  // seed behaviour
  }

  const SimTime start = loop().now();
  const SimTime deadline = start + params_.op_deadline;
  Expected<FopReply> last = Errc::kTimedOut;
  std::uint32_t attempts = 0;
  for (;;) {
    const SimTime now = loop().now();
    if (now >= deadline) {
      ++stats_.deadline_exhausted;
      break;
    }
    const SimDuration remaining = deadline - now;
    if (down_ && now < next_probe_) {
      // Ejected and no probe due yet: wait (bounded by the budget) instead
      // of hammering a dead brick. Cacheable ops never park here — CMCache
      // consults server_down() and serves brownout hits above us.
      ++stats_.fast_fails;
      co_await loop().sleep(
          std::min<SimDuration>(next_probe_ - now, remaining));
      continue;
    }
    if (attempts > 0) {
      req.retry = 1;
      ++stats_.retries;
      if (req.op_seq > 0) ++stats_.replays;
    }
    SimDuration t = remaining;
    if (params_.attempt_timeout > 0) {
      t = std::min(t, params_.attempt_timeout);
    }
    req.ttl = t;  // the brick sheds us if we pick this up after t
    auto rep = co_await attempt(req, t);
    ++attempts;

    if (rep && rep->errc != Errc::kBusy) {
      mark_alive();
      note_elapsed(start);
      co_return rep;
    }
    Errc e;
    if (rep) {  // decoded kBusy reply: the brick is alive, just shedding
      e = Errc::kBusy;
      ++stats_.sheds_seen;
      mark_alive();
      last = *rep;
    } else {
      e = rep.error();
      switch (e) {
        case Errc::kTimedOut: ++stats_.timeouts; break;
        case Errc::kConnRefused: ++stats_.refusals; break;
        case Errc::kConnReset: ++stats_.resets; break;
        default: ++stats_.torn; break;
      }
      note_failure();
      last = e;
    }
    if (!retryable(e)) break;
    // Capped exponential backoff, never past the deadline: total elapsed
    // stays within op_deadline + one backoff step, the bound the fault
    // matrix asserts.
    const SimDuration backoff =
        backoff_delay(params_.backoff_base, attempts - 1, params_.backoff_cap);
    const SimTime after = loop().now();
    if (after >= deadline) continue;  // loop head records exhaustion
    co_await loop().sleep(std::min<SimDuration>(backoff, deadline - after));
  }
  note_elapsed(start);
  co_return last;
}

FopRequest ProtocolClient::request(FopType type, std::string path) {
  FopRequest req;
  req.type = type;
  req.path = std::move(path);
  return req;
}

template <typename T>
sim::Task<Expected<T>> ProtocolClient::call(FopRequest req) {
  auto rep = co_await roundtrip(std::move(req));
  if (!rep) co_return rep.error();
  if (!ok(rep->errc)) co_return rep->errc;
  if constexpr (std::is_same_v<T, store::Attr>) {
    co_return rep->attr;
  } else if constexpr (std::is_same_v<T, Buffer>) {
    co_return std::move(rep->data);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    co_return rep->count;
  } else {
    co_return Expected<void>{};
  }
}

sim::Task<Expected<store::Attr>> ProtocolClient::create(std::string path,
                                                        std::uint32_t mode) {
  FopRequest req = request(FopType::kCreate, std::move(path));
  req.mode = mode;
  return call<store::Attr>(std::move(req));
}

sim::Task<Expected<store::Attr>> ProtocolClient::open(std::string path) {
  return call<store::Attr>(request(FopType::kOpen, std::move(path)));
}

sim::Task<Expected<void>> ProtocolClient::close(std::string path) {
  return call<void>(request(FopType::kClose, std::move(path)));
}

sim::Task<Expected<store::Attr>> ProtocolClient::stat(std::string path) {
  return call<store::Attr>(request(FopType::kStat, std::move(path)));
}

sim::Task<Expected<Buffer>> ProtocolClient::read(std::string path,
                                                 std::uint64_t offset,
                                                 std::uint64_t len) {
  FopRequest req = request(FopType::kRead, std::move(path));
  req.offset = offset;
  req.length = len;
  return call<Buffer>(std::move(req));
}

sim::Task<Expected<std::uint64_t>> ProtocolClient::write(std::string path,
                                                         std::uint64_t offset,
                                                         Buffer data) {
  FopRequest req = request(FopType::kWrite, std::move(path));
  req.offset = offset;
  req.data = std::move(data);
  return call<std::uint64_t>(std::move(req));
}

sim::Task<Expected<void>> ProtocolClient::unlink(std::string path) {
  return call<void>(request(FopType::kUnlink, std::move(path)));
}

sim::Task<Expected<void>> ProtocolClient::truncate(std::string path,
                                                   std::uint64_t size) {
  FopRequest req = request(FopType::kTruncate, std::move(path));
  req.offset = size;
  return call<void>(std::move(req));
}

sim::Task<Expected<void>> ProtocolClient::fsync(std::string path) {
  return call<void>(request(FopType::kFsync, std::move(path)));
}

sim::Task<Expected<void>> ProtocolClient::rename(std::string from,
                                                 std::string to) {
  FopRequest req = request(FopType::kRename, std::move(from));
  req.path2 = std::move(to);
  return call<void>(std::move(req));
}

}  // namespace imca::gluster
