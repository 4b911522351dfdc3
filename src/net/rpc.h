// Request/response RPC over the simulated fabric.
//
// Services (the GlusterFS server process, each memcached daemon, the Lustre
// MDS/OSS, the NFS server) register a handler on a (node, port) pair. A call
// ships the encoded request across the fabric, runs the handler *on the
// server* (any resource the handler touches — CPU, disk — queues there), and
// ships the encoded response back. Response size on the wire is the size of
// the actual encoding, so big reads cost real serialization time.
//
// Failure model: calling a port nobody listens on costs one wire round trip
// and returns kConnRefused — this is what the libmemcache client sees when a
// cache daemon has been killed (paper §4.4: "IMCa can transparently account
// for failures in MCDs").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/bytebuf.h"
#include "common/expected.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "net/transport.h"
#include "sim/task.h"

namespace imca::net {

using Port = std::uint16_t;

// Well-known ports, matching the real systems where one exists.
inline constexpr Port kPortGluster = 24007;    // GlusterFS brick
inline constexpr Port kPortMemcached = 11211;  // memcached daemon
inline constexpr Port kPortLustreMds = 988;    // Lustre metadata service
inline constexpr Port kPortLustreOss = 989;    // Lustre object storage
inline constexpr Port kPortNfs = 2049;         // NFS server

class RpcSystem {
 public:
  using Handler =
      std::function<sim::Task<ByteBuf>(ByteBuf request, NodeId from)>;

  explicit RpcSystem(Fabric& fabric) : fabric_(fabric) {}
  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  // Register `handler` as the listener on (node, port). Replaces any
  // previous listener (used by restart scenarios).
  void listen(NodeId node, Port port, Handler handler);

  // Remove the listener — subsequent calls get kConnRefused. Models killing
  // a daemon for the failure-injection experiments.
  void shutdown(NodeId node, Port port);

  bool listening(NodeId node, Port port) const {
    return handlers_.contains({node, port});
  }

  // Issue a call from `src` to the service at (dst, port). `transport`
  // overrides the fabric's default parameters for this call's two transfers
  // (e.g. a verbs/RDMA channel to a cache daemon).
  sim::Task<Expected<ByteBuf>> call(NodeId src, NodeId dst, Port port,
                                    ByteBuf request,
                                    const TransportParams* transport = nullptr);

  // call() raced against a deadline: kTimedOut once `timeout` (> 0) passes
  // first. The call runs detached and a late result is dropped; every fault
  // resolves in bounded sim time, so its frame completes before the loop
  // drains.
  sim::Task<Expected<ByteBuf>> call_within(
      SimDuration timeout, NodeId src, NodeId dst, Port port, ByteBuf request,
      const TransportParams* transport = nullptr);

  Fabric& fabric() noexcept { return fabric_; }

  std::uint64_t calls_made() const noexcept { return calls_; }

  // Attach (or detach, with nullptr) a fault injector. Not owned; must
  // outlive the RpcSystem or be detached first.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  Fabric& fabric_;
  std::map<std::pair<NodeId, Port>, Handler> handlers_;
  std::uint64_t calls_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace imca::net
