// One simulation's substrate: the event loop, the fabric over it and the RPC
// system over the fabric, built in the one order their references allow and
// torn down in reverse. Every testbed derives from it and every test rig
// that wires services by hand holds one; apart from the fabric's and the
// RPC layer's own unit tests, nothing else constructs a Fabric or an
// RpcSystem.
//
// A SimContext shares no mutable state with another: two simulations may
// run on two threads at once (the coroutine frame pool and the copy ledger
// are per thread). One simulation stays on one thread.
#pragma once

#include <cstdint>
#include <utility>

#include "net/fabric.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace imca::net {

class SimContext {
 public:
  // `tie_shake` seeds the loop's schedule shake (DESIGN.md §5k; 0 = plain
  // FIFO tie-break), fixed for the run.
  explicit SimContext(TransportParams transport = ipoib_rc(),
                      std::uint64_t tie_shake = 0)
      : loop_(tie_shake), fabric_(loop_, std::move(transport)),
        rpc_(fabric_) {}

  sim::EventLoop& loop() noexcept { return loop_; }
  Fabric& fabric() noexcept { return fabric_; }
  RpcSystem& rpc() noexcept { return rpc_; }

  // Run one task to completion on the loop.
  void run(sim::Task<void> task) {
    loop_.spawn(std::move(task));
    loop_.run();
  }

 private:
  sim::EventLoop loop_;
  Fabric fabric_;
  RpcSystem rpc_;
};

}  // namespace imca::net
