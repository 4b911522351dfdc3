// Per-op spans recorded at the fsapi boundary.
//
// TracingClient is a pass-through fsapi::FileSystemClient: it forwards every
// call to the mount it wraps and records one Span per op (op, client, path,
// simulated start and end, result). Forwarding adds a coroutine frame but no
// simulated event, so a traced run produces the same simulated numbers as
// an untraced one — the benchmark checks that. The recorded stream is also
// what the layer replays (layers.h) feed to the layers' public functions.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsapi/filesystem.h"
#include "sim/event_loop.h"

namespace perfbench {

enum class SpanOp : std::uint8_t {
  kCreate, kOpen, kClose, kStat, kRead, kWrite, kUnlink, kTruncate, kRename,
  kFsync
};
const char* span_op_name(SpanOp op);

struct Span {
  SpanOp op = SpanOp::kStat;
  std::uint32_t client = 0;
  bool measured = false;  // false = setup phase
  bool ok = false;
  std::string path;
  std::string to;  // rename target
  std::uint64_t offset = 0;
  std::uint64_t len = 0;  // read: requested; write: payload; truncate: size
  imca::SimTime start = 0;
  imca::SimTime end = 0;
};

struct SpanLog {
  std::vector<Span> spans;
  bool measured = false;  // stamped onto spans recorded from now on
};

// Writes `log` as tab-separated text, one span per line. False on I/O error.
bool write_spans(const SpanLog& log, const std::string& path);

class TracingClient final : public imca::fsapi::FileSystemClient {
 public:
  TracingClient(imca::fsapi::FileSystemClient& inner,
                imca::sim::EventLoop& loop, std::uint32_t client,
                SpanLog& log)
      : inner_(inner), loop_(loop), client_(client), log_(log) {}

  imca::sim::Task<imca::Expected<imca::fsapi::OpenFile>> create(
      std::string path) override;
  imca::sim::Task<imca::Expected<imca::fsapi::OpenFile>> open(
      std::string path) override;
  imca::sim::Task<imca::Expected<void>> close(
      imca::fsapi::OpenFile file) override;
  imca::sim::Task<imca::Expected<imca::store::Attr>> stat(
      std::string path) override;
  imca::sim::Task<imca::Expected<imca::Buffer>> read(
      imca::fsapi::OpenFile file, std::uint64_t offset,
      std::uint64_t len) override;
  imca::sim::Task<imca::Expected<std::uint64_t>> write(
      imca::fsapi::OpenFile file, std::uint64_t offset,
      imca::Buffer data) override;
  imca::sim::Task<imca::Expected<void>> unlink(std::string path) override;
  imca::sim::Task<imca::Expected<void>> truncate(std::string path,
                                                 std::uint64_t size) override;
  imca::sim::Task<imca::Expected<void>> rename(std::string from,
                                               std::string to) override;
  imca::sim::Task<imca::Expected<void>> fsync(
      imca::fsapi::OpenFile file) override;

 private:
  // Spans are addressed by index: other clients append while this op is
  // suspended, which may reallocate the vector.
  std::size_t open_span(SpanOp op, std::string path);
  void close_span(std::size_t i, bool ok) {
    Span& s = log_.spans[i];
    s.end = loop_.now();
    s.ok = ok;
  }
  std::string path_of(imca::fsapi::OpenFile f) const;

  imca::fsapi::FileSystemClient& inner_;
  imca::sim::EventLoop& loop_;
  std::uint32_t client_;
  SpanLog& log_;
  std::unordered_map<std::uint64_t, std::string> fd_path_;
};

}  // namespace perfbench
