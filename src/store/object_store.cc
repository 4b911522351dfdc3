#include "store/object_store.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

namespace imca::store {

namespace {

using Extents = std::map<std::uint64_t, BufView>;

// Drops [begin, end) from `ext`, trimming extents that straddle either
// edge; returns the first extent at or past `end`.
Extents::iterator punch(Extents& ext, std::uint64_t begin, std::uint64_t end) {
  auto it = ext.lower_bound(begin);
  if (it != ext.begin()) {
    const auto prev = std::prev(it);
    const std::uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > begin) {
      // Straddles `begin`: keep its head. If it also straddles `end`,
      // nothing else starts inside the range; its tail goes back in.
      const BufView whole = prev->second;
      prev->second = whole.sub(0, begin - prev->first);
      if (prev_end > end) {
        return ext.emplace_hint(it, end,
                                whole.sub(end - prev->first, prev_end - end));
      }
    }
  }
  const auto last = ext.lower_bound(end);
  if (last == it) return it;
  const auto back = std::prev(last);
  const std::uint64_t back_end = back->first + back->second.size();
  BufView tail;
  if (back_end > end) {
    tail = back->second.sub(end - back->first, back_end - end);
  }
  it = ext.erase(it, last);
  if (!tail.empty()) it = ext.emplace_hint(it, end, std::move(tail));
  return it;
}

}  // namespace

void Attr::encode(ByteBuf& out) const {
  out.put_u64(inode);
  out.put_u64(size);
  out.put_u32(mode);
  out.put_u32(nlink);
  out.put_u64(atime);
  out.put_u64(mtime);
  out.put_u64(ctime);
}

Expected<Attr> Attr::decode(ByteBuf& in) {
  Attr a;
  auto inode = in.get_u64();
  if (!inode) return inode.error();
  a.inode = *inode;
  auto size = in.get_u64();
  if (!size) return size.error();
  a.size = *size;
  auto mode = in.get_u32();
  if (!mode) return mode.error();
  a.mode = *mode;
  auto nlink = in.get_u32();
  if (!nlink) return nlink.error();
  a.nlink = *nlink;
  auto atime = in.get_u64();
  if (!atime) return atime.error();
  a.atime = *atime;
  auto mtime = in.get_u64();
  if (!mtime) return mtime.error();
  a.mtime = *mtime;
  auto ctime = in.get_u64();
  if (!ctime) return ctime.error();
  a.ctime = *ctime;
  return a;
}

Expected<Attr> ObjectStore::create(std::string_view path, SimTime now,
                                   std::uint32_t mode) {
  auto [it, inserted] = files_.try_emplace(std::string(path));
  if (!inserted) return Errc::kExist;
  File& f = it->second;
  f.attr.inode = next_inode_++;
  f.attr.mode = mode;
  f.attr.atime = f.attr.mtime = f.attr.ctime = now;
  return f.attr;
}

Expected<void> ObjectStore::unlink(std::string_view path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  total_bytes_ -= it->second.attr.size;
  files_.erase(it);
  return {};
}

bool ObjectStore::exists(std::string_view path) const {
  return files_.contains(path);
}

Expected<Attr> ObjectStore::stat(std::string_view path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  return it->second.attr;
}

BufView ObjectStore::zeros(std::size_t n) const {
  if (zeros_.size() < n) zeros_ = Segment::zeros(std::bit_ceil(n));
  return BufView(zeros_, 0, n);
}

Expected<std::uint64_t> ObjectStore::write(std::string_view path,
                                           std::uint64_t offset,
                                           const Buffer& data, SimTime now) {
  if (data.size() > std::numeric_limits<std::uint64_t>::max() - offset) {
    return Errc::kInval;
  }
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  File& f = it->second;
  const std::uint64_t end = offset + data.size();
  if (end > f.attr.size) {
    total_bytes_ += end - f.attr.size;
    f.attr.size = end;
  }
  if (!data.empty()) {
    auto at = punch(f.extents, offset, end);
    std::uint64_t pos = offset;
    for (const BufView& v : data.views()) {
      f.extents.emplace_hint(at, pos, v);
      pos += v.size();
    }
  }
  f.attr.mtime = f.attr.ctime = now;
  return f.attr.size;
}

Expected<Buffer> ObjectStore::read(std::string_view path,
                                   std::uint64_t offset,
                                   std::uint64_t len) const {
  auto fit = files_.find(path);
  if (fit == files_.end()) return Errc::kNoEnt;
  const File& f = fit->second;
  if (offset >= f.attr.size) return Buffer{};
  const std::uint64_t end = offset + std::min(len, f.attr.size - offset);
  auto it = f.extents.upper_bound(offset);
  if (it != f.extents.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  Buffer out;
  std::uint64_t pos = offset;
  for (; it != f.extents.end() && it->first < end; ++it) {
    if (it->first > pos) {
      out.append(zeros(it->first - pos));
      pos = it->first;
    }
    BufView piece = it->second.sub(pos - it->first, end - pos);
    pos += piece.size();
    out.append(std::move(piece));
  }
  if (pos < end) out.append(zeros(end - pos));
  return out;
}

Expected<void> ObjectStore::truncate(std::string_view path, std::uint64_t size,
                                     SimTime now) {
  auto it = files_.find(path);
  if (it == files_.end()) return Errc::kNoEnt;
  File& f = it->second;
  if (size >= f.attr.size) {
    total_bytes_ += size - f.attr.size;
  } else {
    total_bytes_ -= f.attr.size - size;
    punch(f.extents, size, f.attr.size);
  }
  f.attr.size = size;
  f.attr.mtime = f.attr.ctime = now;
  return {};
}

Expected<void> ObjectStore::rename(std::string_view from, std::string_view to,
                                   SimTime now) {
  auto src = files_.find(from);
  if (src == files_.end()) return Errc::kNoEnt;
  if (from == to) return {};
  // Replace any existing target (POSIX semantics).
  if (auto dst = files_.find(to); dst != files_.end()) {
    total_bytes_ -= dst->second.attr.size;
    files_.erase(dst);
  }
  auto node = files_.extract(src);
  node.key() = std::string(to);
  node.mapped().attr.ctime = now;
  files_.insert(std::move(node));
  return {};
}

std::vector<std::string> ObjectStore::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, file] : files_) out.push_back(path);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace imca::store
