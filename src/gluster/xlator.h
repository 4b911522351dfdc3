// The translator (xlator) abstraction GlusterFS is built from.
//
// GlusterFS composes file-system behaviour by stacking translators: each one
// intercepts fops on the way down and results on the way back up
// (STACK_WIND / STACK_UNWIND in the original). Our coroutine rendering is
// direct: winding is `co_await child_->fop(...)`; unwinding is the code
// after the await — which is exactly where the paper's SMCache installs its
// "hooks in the callback handler" (§4.1).
//
// The default implementation of every fop forwards to the child, so a
// translator overrides only what it cares about (CMCache overrides stat and
// read; SMCache overrides open/read/write/close/unlink; ...).
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/expected.h"
#include "common/units.h"
#include "sim/task.h"
#include "store/object_store.h"

namespace imca::gluster {

// What a caching translator may ask about the file server's reachability.
// Implemented by ProtocolClient (which learns about server death from its
// own ejection machinery); consumed by CMCache's brownout mode, which may
// serve bounded-staleness cache hits while the server is ejected
// (DESIGN.md §5f).
class ServerHealth {
 public:
  virtual ~ServerHealth() = default;
  // True while the server is ejected (consecutive-failure threshold hit and
  // no successful probe since).
  virtual bool server_down() const = 0;
  // When the current down episode began (meaningful only while down).
  virtual SimTime server_down_since() const = 0;
};

class Xlator {
 public:
  virtual ~Xlator() = default;

  // The translator below this one in the stack. Owned by the graph builder
  // (GlusterClient/GlusterServer), not by the translator.
  void set_child(Xlator* child) noexcept { child_ = child; }
  Xlator* child() const noexcept { return child_; }

  virtual sim::Task<Expected<store::Attr>> create(std::string path,
                                                  std::uint32_t mode);
  virtual sim::Task<Expected<store::Attr>> open(std::string path);
  virtual sim::Task<Expected<void>> close(std::string path);
  virtual sim::Task<Expected<store::Attr>> stat(std::string path);
  virtual sim::Task<Expected<Buffer>> read(std::string path,
                                           std::uint64_t offset,
                                           std::uint64_t len);
  virtual sim::Task<Expected<std::uint64_t>> write(std::string path,
                                                   std::uint64_t offset,
                                                   Buffer data);
  virtual sim::Task<Expected<void>> unlink(std::string path);
  // Durability barrier: flush anything buffered for `path` to stable
  // storage. Idempotent and state-free at the posix layer; CMCache
  // overrides it to drain its write-back tier.
  virtual sim::Task<Expected<void>> fsync(std::string path);
  virtual sim::Task<Expected<void>> truncate(std::string path,
                                             std::uint64_t size);
  virtual sim::Task<Expected<void>> rename(std::string from,
                                           std::string to);

  // A short name for diagnostics ("posix", "cmcache", ...).
  virtual std::string_view name() const = 0;

  // Process-lifecycle notifications from the owning GlusterServer: crash()
  // kills the brick process, restart() boots a new one. A translator holding
  // volatile per-process state (queued cache updates, memoized sizes) loses
  // it here, exactly as the real daemon would. Default: stateless.
  virtual void on_server_crash() {}
  virtual void on_server_restart() {}

 protected:
  Xlator* child_ = nullptr;
};

}  // namespace imca::gluster
