// The POSIX-ish client interface every file system in this repository
// implements: GlusterFS (with or without the IMCa translators), the
// Lustre-like comparator and the NFS-like motivation server.
//
// Benchmarks and examples are written against this interface, so the same
// workload code drives every system in every figure — the comparison
// methodology the paper uses (same IOzone/latency/stat benchmarks against
// GlusterFS, GlusterFS+IMCa and Lustre).
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/expected.h"
#include "sim/task.h"
#include "store/object_store.h"

namespace imca::fsapi {

// An open-file handle. Plain value type; the owning client interprets it.
struct OpenFile {
  std::uint64_t fd = 0;
};

class FileSystemClient {
 public:
  virtual ~FileSystemClient() = default;

  // Create a new file and open it. kExist if the path is taken.
  virtual sim::Task<Expected<OpenFile>> create(std::string path) = 0;

  // Open an existing file. kNoEnt if absent.
  virtual sim::Task<Expected<OpenFile>> open(std::string path) = 0;

  // Release the handle. kBadF on an unknown handle.
  virtual sim::Task<Expected<void>> close(OpenFile file) = 0;

  // POSIX stat by path.
  virtual sim::Task<Expected<store::Attr>> stat(std::string path) = 0;

  // Read up to `len` bytes at `offset`; short at EOF. The result is a
  // segment chain shared with the layer that produced the bytes; callers
  // materialize with gather()/copy_to() only at the true consumption edge.
  virtual sim::Task<Expected<Buffer>> read(OpenFile file, std::uint64_t offset,
                                           std::uint64_t len) = 0;

  // Write `data` at `offset`; returns bytes written (always all of them).
  virtual sim::Task<Expected<std::uint64_t>> write(OpenFile file,
                                                   std::uint64_t offset,
                                                   Buffer data) = 0;

  // Remove by path.
  virtual sim::Task<Expected<void>> unlink(std::string path) = 0;

  // Set the file size (grow zero-fills, shrink discards).
  virtual sim::Task<Expected<void>> truncate(std::string path,
                                             std::uint64_t size) = 0;

  // Atomically move `from` to `to`, replacing any existing `to`. Open
  // handles follow the file to its new name.
  virtual sim::Task<Expected<void>> rename(std::string from,
                                           std::string to) = 0;

  // Durability barrier: acked writes on `file` are on stable storage when
  // this returns. Default is a no-op — meaningful only for clients with a
  // volatile write path (IMCa write-back).
  virtual sim::Task<Expected<void>> fsync(OpenFile file) {
    (void)file;
    co_return Expected<void>{};
  }
};

}  // namespace imca::fsapi
