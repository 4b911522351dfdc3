#include "gluster/write_behind.h"

namespace imca::gluster {

sim::Task<Expected<void>> WriteBehindXlator::flush() {
  if (buf_.empty()) co_return Expected<void>{};
  ++flushes_;
  ++run_id_;  // the run leaves the buffer now, whatever the outcome
  deadline_armed_ = false;
  // Detach the run BEFORE suspending on the child: while this write is in
  // flight (a disk access is ~12 ms) new client writes must start a fresh
  // run, not absorb into a buffer that is already on its way down — that
  // both corrupts the buffer and silently loses the absorbed bytes when
  // the flush resumes and resets it.
  const std::string path = std::move(buf_path_);
  const std::uint64_t offset = buf_offset_;
  Buffer run = std::move(buf_);
  buf_path_.clear();
  // Hand the child a copy per attempt (Buffer segments are refcounted, so
  // this shares storage, not bytes) and keep the run for a retry: kBusy is
  // a shed admission queue, not a bad disk, and in classic mode the run
  // holds bytes that were already acked to a writer.
  Errc err = Errc::kOk;
  for (unsigned attempt = 0;; ++attempt) {
    auto r = co_await child_->write(path, offset, run);
    if (r) co_return Expected<void>{};
    err = r.error();
    if (err != Errc::kBusy || attempt + 1 >= kFlushAttempts) break;
    ++flush_retries_;
    co_await loop_.sleep(kFlushRetryBackoff);
  }
  ++flush_errors_;
  // Terminal failure: the error goes to the current caller only, and the
  // run dies here (GlusterFS drops the fd's dirty pages the same way). In
  // classic mode those bytes were acked — count the loss so a crash-free
  // run that lost data cannot claim dropped_bytes == 0.
  if (!params_.flush_before_ack) {
    ++dropped_runs_;
    dropped_bytes_ += run.size();
  }
  co_return err;
}

Errc WriteBehindXlator::take_stuck_error(const std::string& path) {
  const auto it = stuck_errors_.find(path);
  if (it == stuck_errors_.end()) return Errc::kOk;
  const Errc e = it->second;
  stuck_errors_.erase(it);
  return e;
}

void WriteBehindXlator::arm_deadline_flush() {
  if (params_.flush_deadline == 0 || deadline_armed_ || buf_.empty()) return;
  deadline_armed_ = true;
  const std::uint64_t run = run_id_;
  // The loop owns the spawned frame, not this xlator: it can outlive us by
  // up to flush_deadline. Take the loop pointer by value and check the
  // liveness token after every suspension before touching members.
  loop_.spawn([](WriteBehindXlator* wb, sim::EventLoop* loop,
                 SimDuration deadline, std::weak_ptr<const bool> alive,
                 std::uint64_t r) -> sim::Task<void> {
    co_await loop->sleep(deadline);
    if (alive.expired()) co_return;  // xlator torn down while we slept
    if (wb->run_id_ != r || wb->buf_.empty()) co_return;  // already flushed
    ++wb->deadline_flushes_;
    const std::string path = wb->buf_path_;
    auto ok = co_await wb->flush();
    if (alive.expired()) co_return;
    if (!ok) {
      // Off the fop path: nobody to hand the error to right now. Stick it
      // to the path; the next op on it pays (GlusterFS fd-error semantics).
      wb->stuck_errors_[path] = ok.error();
    }
  }(this, &loop_, params_.flush_deadline,
    std::weak_ptr<const bool>(alive_), run));
}

std::uint64_t WriteBehindXlator::drop_volatile() {
  const std::uint64_t n = buf_.size();
  if (n > 0) {
    ++dropped_runs_;
    dropped_bytes_ += n;
    ++run_id_;
  }
  buf_ = Buffer{};
  buf_path_.clear();
  deadline_armed_ = false;
  stuck_errors_.clear();  // stuck errors were brick memory too
  return n;
}

sim::Task<Expected<std::uint64_t>> WriteBehindXlator::write(
    std::string path, std::uint64_t offset, Buffer data) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  const std::uint64_t written = data.size();
  // Contiguous continuation of the current buffer? Absorb it.
  if (buffering(path) && offset == buf_offset_ + buf_.size()) {
    buf_.append(std::move(data));
    ++absorbed_;
  } else {
    // Non-contiguous or different file: flush what we hold, start a new run.
    // flush() suspends inside the child; a concurrent write can install —
    // and in classic mode already be acked for — a brand-new run while this
    // one is down there. Installing ours over it would silently lose those
    // acked bytes, so re-check after every resume and keep flushing until
    // the buffer is genuinely empty (no suspension between the final check
    // and the install).
    while (!buf_.empty()) {
      if (auto r = co_await flush(); !r) co_return r.error();
    }
    buf_path_ = path;
    buf_offset_ = offset;
    buf_ = std::move(data);
  }
  if (params_.flush_before_ack || buf_.size() >= params_.flush_threshold) {
    if (auto r = co_await flush(); !r) co_return r.error();
  } else {
    // This write() frame is awaited by the client call chain, which owns
    // the xlator stack — no destruction mid-suspension.
    // NOLINTNEXTLINE(imca-coro-this): frame awaited by the stack's owner
    arm_deadline_flush();
  }
  co_return written;
}

sim::Task<Expected<Buffer>> WriteBehindXlator::read(std::string path,
                                                    std::uint64_t offset,
                                                    std::uint64_t len) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->read(path, offset, len);
}

sim::Task<Expected<store::Attr>> WriteBehindXlator::stat(
    std::string path) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->stat(path);
}

sim::Task<Expected<void>> WriteBehindXlator::close(std::string path) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->close(path);
}

sim::Task<Expected<void>> WriteBehindXlator::unlink(std::string path) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->unlink(path);
}

sim::Task<Expected<void>> WriteBehindXlator::truncate(std::string path,
                                                      std::uint64_t size) {
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->truncate(path, size);
}

sim::Task<Expected<void>> WriteBehindXlator::fsync(std::string path) {
  // The durability barrier: whatever is buffered for the path must be on the
  // child before fsync returns (flush-before-dependent-op, same as close).
  if (const Errc stuck = take_stuck_error(path); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(path)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->fsync(path);
}

sim::Task<Expected<void>> WriteBehindXlator::rename(std::string from,
                                                    std::string to) {
  if (const Errc stuck = take_stuck_error(from); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (const Errc stuck = take_stuck_error(to); stuck != Errc::kOk) {
    co_return stuck;
  }
  if (buffering(from) || buffering(to)) {
    if (auto r = co_await flush(); !r) co_return r.error();
  }
  co_return co_await child_->rename(from, to);
}

}  // namespace imca::gluster
