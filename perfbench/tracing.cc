#include "tracing.h"

#include <cstdio>

namespace perfbench {

using imca::Buffer;
using imca::Expected;
using imca::fsapi::OpenFile;
using imca::sim::Task;

const char* span_op_name(SpanOp op) {
  switch (op) {
    case SpanOp::kCreate: return "create";
    case SpanOp::kOpen: return "open";
    case SpanOp::kClose: return "close";
    case SpanOp::kStat: return "stat";
    case SpanOp::kRead: return "read";
    case SpanOp::kWrite: return "write";
    case SpanOp::kUnlink: return "unlink";
    case SpanOp::kTruncate: return "truncate";
    case SpanOp::kRename: return "rename";
    case SpanOp::kFsync: return "fsync";
  }
  return "?";
}

bool write_spans(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tclient\tphase\tstart_ns\tend_ns\tok\tpath\toffset\tlen\tto\n");
  for (const Span& s : log.spans) {
    std::fprintf(f, "%s\t%u\t%s\t%llu\t%llu\t%d\t%s\t%llu\t%llu\t%s\n",
                 span_op_name(s.op), s.client,
                 s.measured ? "measured" : "setup",
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), s.ok ? 1 : 0,
                 s.path.c_str(), static_cast<unsigned long long>(s.offset),
                 static_cast<unsigned long long>(s.len), s.to.c_str());
  }
  return std::fclose(f) == 0;
}

std::size_t TracingClient::open_span(SpanOp op, std::string path) {
  Span s;
  s.op = op;
  s.client = client_;
  s.measured = log_.measured;
  s.path = std::move(path);
  s.start = loop_.now();
  log_.spans.push_back(std::move(s));
  return log_.spans.size() - 1;
}

std::string TracingClient::path_of(OpenFile f) const {
  const auto it = fd_path_.find(f.fd);
  return it == fd_path_.end() ? std::string() : it->second;
}

Task<Expected<OpenFile>> TracingClient::create(std::string path) {
  const std::size_t i = open_span(SpanOp::kCreate, path);
  auto r = co_await inner_.create(path);
  if (r) fd_path_[r->fd] = std::move(path);
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<OpenFile>> TracingClient::open(std::string path) {
  const std::size_t i = open_span(SpanOp::kOpen, path);
  auto r = co_await inner_.open(path);
  if (r) fd_path_[r->fd] = std::move(path);
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<void>> TracingClient::close(OpenFile file) {
  const std::size_t i = open_span(SpanOp::kClose, path_of(file));
  auto r = co_await inner_.close(file);
  if (r) fd_path_.erase(file.fd);
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<imca::store::Attr>> TracingClient::stat(std::string path) {
  const std::size_t i = open_span(SpanOp::kStat, path);
  auto r = co_await inner_.stat(std::move(path));
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<Buffer>> TracingClient::read(OpenFile file, std::uint64_t offset,
                                           std::uint64_t len) {
  const std::size_t i = open_span(SpanOp::kRead, path_of(file));
  log_.spans[i].offset = offset;
  log_.spans[i].len = len;
  auto r = co_await inner_.read(file, offset, len);
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<std::uint64_t>> TracingClient::write(OpenFile file,
                                                   std::uint64_t offset,
                                                   Buffer data) {
  const std::size_t i = open_span(SpanOp::kWrite, path_of(file));
  log_.spans[i].offset = offset;
  log_.spans[i].len = data.size();
  auto r = co_await inner_.write(file, offset, std::move(data));
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<void>> TracingClient::unlink(std::string path) {
  const std::size_t i = open_span(SpanOp::kUnlink, path);
  auto r = co_await inner_.unlink(std::move(path));
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<void>> TracingClient::truncate(std::string path,
                                             std::uint64_t size) {
  const std::size_t i = open_span(SpanOp::kTruncate, path);
  log_.spans[i].len = size;
  auto r = co_await inner_.truncate(std::move(path), size);
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<void>> TracingClient::rename(std::string from, std::string to) {
  const std::size_t i = open_span(SpanOp::kRename, from);
  log_.spans[i].to = to;
  auto r = co_await inner_.rename(from, to);
  if (r) {
    // Open handles follow the file to its new name.
    for (auto& [fd, p] : fd_path_) {
      if (p == from) p = to;
    }
  }
  close_span(i, r.has_value());
  co_return r;
}

Task<Expected<void>> TracingClient::fsync(OpenFile file) {
  const std::size_t i = open_span(SpanOp::kFsync, path_of(file));
  auto r = co_await inner_.fsync(file);
  close_span(i, r.has_value());
  co_return r;
}

}  // namespace perfbench
