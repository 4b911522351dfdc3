#include "net/rpc.h"

#include <memory>
#include <optional>

#include "sim/sync.h"

namespace imca::net {

void RpcSystem::listen(NodeId node, Port port, Handler handler) {
  handlers_[{node, port}] = std::move(handler);
}

void RpcSystem::shutdown(NodeId node, Port port) {
  handlers_.erase({node, port});
}

sim::Task<Expected<ByteBuf>> RpcSystem::call(NodeId src, NodeId dst, Port port,
                                             ByteBuf request,
                                             const TransportParams* transport) {
  ++calls_;
  const TransportParams& t =
      transport != nullptr ? *transport : fabric_.transport();

  const FaultDecision fault = injector_ != nullptr
                                  ? injector_->decide(dst, port)
                                  : FaultDecision{};

  const auto it = handlers_.find({dst, port});
  if (it == handlers_.end()) {
    // Connection refused: the SYN still crosses the wire and the RST comes
    // back, so the caller pays one round trip before learning the peer died.
    co_await fabric_.loop().sleep(2 * t.wire_latency);
    co_return Errc::kConnRefused;
  }

  // The daemon can shut down while the request is on the wire or while the
  // handler runs (killed mid-request), erasing its map node under any of
  // the awaits below — copy the callable before the first suspension.
  Handler handler = it->second;

  co_await fabric_.transfer_via(t, src, dst, request.size());

  if (fault.kind == FaultKind::kDropRequest) {
    // The request vanished before the daemon parsed it: no side effect on
    // the peer, and the caller only gives up after the transport deadline.
    co_await fabric_.loop().sleep(kFaultGiveUp);
    co_return Errc::kTimedOut;
  }

  if (!listening(dst, port)) {
    // The daemon died while the request crossed the wire: it lands on a
    // closed port and the RST comes back. Nothing was applied.
    co_return Errc::kConnReset;
  }

  ByteBuf response = co_await handler(std::move(request), src);

  if (!listening(dst, port)) {
    // Daemon died before the response hit the wire.
    co_return Errc::kConnReset;
  }

  if (fault.kind == FaultKind::kDropReply) {
    // Side effects applied on the daemon, reply lost on the way back.
    co_await fabric_.loop().sleep(kFaultGiveUp);
    co_return Errc::kTimedOut;
  }

  if (fault.kind == FaultKind::kSlowReply) {
    co_await fabric_.loop().sleep(fault.slow_delay);
  }

  if (fault.kind == FaultKind::kShortRead && response.size() > 0) {
    // Truncate to a strict prefix; the protocol parser reports kProto.
    const std::size_t cut =
        static_cast<std::size_t>(fault.cut_draw % response.size());
    response = ByteBuf(response.buffer().slice(0, cut));
  }

  co_await fabric_.transfer_via(t, dst, src, response.size());
  co_return response;
}

sim::Task<Expected<ByteBuf>> RpcSystem::call_within(
    SimDuration timeout, NodeId src, NodeId dst, Port port, ByteBuf request,
    const TransportParams* transport) {
  struct Race {
    explicit Race(sim::EventLoop& l) : done(l) {}
    sim::Event done;
    std::optional<Expected<ByteBuf>> result;
  };
  sim::EventLoop& loop = fabric_.loop();
  auto race = std::make_shared<Race>(loop);
  // Spawn the call first, then arm the deadline: ties between the two at
  // one timestamp resolve in the order they were queued here.
  loop.spawn([](RpcSystem* rpc, NodeId s, NodeId d, Port p, ByteBuf req,
                const TransportParams* t,
                std::shared_ptr<Race> r) -> sim::Task<void> {
    auto resp = co_await rpc->call(s, d, p, std::move(req), t);
    if (!r->done.is_set()) r->result.emplace(std::move(resp));
    r->done.set();
  }(this, src, dst, port, std::move(request), transport, race));
  sim::arm_timeout(loop, std::shared_ptr<sim::Event>(race, &race->done),
                   timeout);
  co_await race->done.wait();
  if (race->result) co_return std::move(*race->result);
  co_return Errc::kTimedOut;
}

}  // namespace imca::net
