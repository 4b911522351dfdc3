#include "lustre/cached_client.h"

#include <algorithm>

namespace imca::lustre {

using core::data_key;

CachedLustreClient::CachedLustreClient(
    LustreClient& inner, std::unique_ptr<mcclient::McClient> bank,
    std::uint64_t block_size)
    : inner_(inner), bank_(std::move(bank)), mapper_(block_size) {
  // The forwarding lambda is not itself a coroutine (IMCA-CORO-LAMBDA):
  // the frame that suspends belongs to the named member coroutine, whose
  // parameters are its own copies.
  inner_.set_revoke_hook([this](std::string path, LockMode requested) {
    return on_revoke(std::move(path), requested);
  });
}

sim::Task<void> CachedLustreClient::on_revoke(std::string path,
                                              LockMode requested) {
  // A reader's arrival (PR) leaves our published data valid — only a
  // writer about to change the bytes forces a purge.
  if (requested != LockMode::kWrite) co_return;
  auto it = state_.find(path);
  if (it == state_.end()) co_return;
  ++it->second.epoch;
  ++stats_.revocation_purges;
  co_await purge_published(path);
}

Expected<std::string> CachedLustreClient::path_of(fsapi::OpenFile file) const {
  auto it = fd_table_.find(file.fd);
  if (it == fd_table_.end()) return Errc::kBadF;
  return it->second;
}

sim::Task<void> CachedLustreClient::purge_published(std::string path) {
  auto it = state_.find(path);
  if (it == state_.end()) co_return;
  const std::uint64_t bs = mapper_.block_size();
  const std::uint64_t extent = it->second.published_extent;
  for (std::uint64_t off = 0; off < extent; off += bs) {
    (void)co_await bank_->del(data_key(path, off), mapper_.index_of(off));
  }
  it->second.published_extent = 0;
}

sim::Task<void> CachedLustreClient::publish_region(std::string path,
                                                   std::uint64_t start,
                                                   Buffer data) {
  PathState& st = state_[path];
  const std::uint64_t epoch_at_start = st.epoch;
  const std::uint64_t bs = mapper_.block_size();
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    if (st.epoch != epoch_at_start) break;  // revoked mid-publish: stop
    const std::uint64_t n = std::min<std::uint64_t>(bs, data.size() - pos);
    (void)co_await bank_->set(data_key(path, start + pos), data.slice(pos, n),
                              mapper_.index_of(start + pos));
    ++stats_.blocks_published;
    st.published_extent = std::max(st.published_extent, start + pos + n);
    pos += n;
  }
  if (st.epoch != epoch_at_start) {
    // A revocation interleaved with our sets: anything we landed after its
    // purge is stale — remove it (the bounded re-purge of the header note).
    ++stats_.epoch_republish_races;
    co_await purge_published(path);
  }
}

sim::Task<Expected<fsapi::OpenFile>> CachedLustreClient::create(
    std::string path) {
  auto f = co_await inner_.create(path);
  if (!f) co_return f;
  fd_table_.emplace(f->fd, std::move(path));
  co_return f;
}

sim::Task<Expected<fsapi::OpenFile>> CachedLustreClient::open(
    std::string path) {
  auto f = co_await inner_.open(path);
  if (!f) co_return f;
  fd_table_.emplace(f->fd, std::move(path));
  co_return f;
}

sim::Task<Expected<void>> CachedLustreClient::close(fsapi::OpenFile file) {
  fd_table_.erase(file.fd);
  co_return co_await inner_.close(file);
}

sim::Task<Expected<store::Attr>> CachedLustreClient::stat(std::string path) {
  co_return co_await inner_.stat(std::move(path));
}

sim::Task<Expected<Buffer>> CachedLustreClient::read(fsapi::OpenFile file,
                                                     std::uint64_t offset,
                                                     std::uint64_t len) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  if (len == 0) co_return Buffer{};

  // The PR lock defines the coherence epoch: while we hold it, no writer can
  // have changed the file (a writer's PW enqueue revokes us first, and the
  // revocation hook purges our bank entries).
  if (auto l = co_await inner_.lock_for_read(*path); !l) co_return l.error();

  const auto blocks = mapper_.covering(offset, len);
  std::vector<std::string> keys;
  std::vector<std::uint64_t> hints;
  for (const auto b : blocks) {
    keys.push_back(data_key(*path, mapper_.start_of(b)));
    hints.push_back(b);
  }
  auto got = co_await bank_->multi_get(std::move(keys), hints);
  if (auto cached = core::assemble_cached(mapper_, offset, len, got)) {
    ++stats_.reads_from_bank;
    co_return std::move(*cached);
  }

  // Miss: fetch the aligned covering region through Lustre and publish it
  // (client-side population — Lustre has no SMCache analogue).
  ++stats_.reads_from_lustre;
  const std::uint64_t start = mapper_.align_down(offset);
  const std::uint64_t length = mapper_.aligned_length(offset, len);
  auto region = co_await inner_.read(file, start, length);
  if (!region) co_return region;
  co_await publish_region(*path, start, *region);

  const std::uint64_t skip = offset - start;
  if (region->size() <= skip) co_return Buffer{};
  co_return region->slice(skip, len);
}

sim::Task<Expected<std::uint64_t>> CachedLustreClient::write(
    fsapi::OpenFile file, std::uint64_t offset, Buffer data) {
  auto path = path_of(file);
  if (!path) co_return path.error();

  // Durability first, through Lustre's own PW-locked write-through path.
  const std::uint64_t data_size = data.size();
  auto written = co_await inner_.write(file, offset, std::move(data));
  if (!written) co_return written;

  // We now hold the PW lock: we are the only client allowed to publish.
  // Read the aligned covering region back (warm: the inner client just
  // cached it) and push it to the bank.
  const std::uint64_t start = mapper_.align_down(offset);
  const std::uint64_t length = mapper_.aligned_length(offset, data_size);
  auto region = co_await inner_.read(file, start, length);
  if (region) {
    co_await publish_region(*path, start, *region);
  }
  co_return written;
}

sim::Task<Expected<void>> CachedLustreClient::truncate(std::string path,
                                                       std::uint64_t size) {
  // Conservative: drop everything we published for the file, then delegate.
  co_await purge_published(path);
  co_return co_await inner_.truncate(std::move(path), size);
}

sim::Task<Expected<void>> CachedLustreClient::rename(std::string from,
                                                     std::string to) {
  co_await purge_published(from);
  co_await purge_published(to);
  state_.erase(from);
  state_.erase(to);
  auto r = co_await inner_.rename(from, to);
  if (r) {
    for (auto& [fd, p] : fd_table_) {
      if (p == from) p = to;
    }
  }
  co_return r;
}

sim::Task<Expected<void>> CachedLustreClient::unlink(std::string path) {
  co_await purge_published(path);
  state_.erase(path);
  co_return co_await inner_.unlink(std::move(path));
}

}  // namespace imca::lustre
