#include "memcache/server.h"

namespace imca::memcache {

McServer::McServer(net::RpcSystem& rpc, net::NodeId node,
                   std::uint64_t memory_limit)
    : rpc_(rpc),
      node_(node),
      cache_(memory_limit),
      worker_(rpc.fabric().loop(), 1,
              "mcd" + std::to_string(node) + ".worker") {}

McServer::~McServer() {
  if (running()) rpc_.shutdown(node_, net::kPortMemcached);
}

void McServer::start() {
  rpc_.listen(node_, net::kPortMemcached,
              [this](ByteBuf req, net::NodeId from) -> sim::Task<ByteBuf> {
                return handle(std::move(req), from);
              });
}

void McServer::stop() {
  rpc_.shutdown(node_, net::kPortMemcached);
  cache_.flush_all();  // a restarted daemon starts cold
}

void McServer::schedule_crash(SimTime at, std::optional<SimTime> restart_at) {
  sim::EventLoop& loop = rpc_.fabric().loop();
  loop.spawn([](McServer* self, sim::EventLoop* lp, SimTime when,
                std::optional<SimTime> revive) -> sim::Task<void> {
    co_await lp->sleep_until(when);
    self->stop();
    if (revive) {
      co_await lp->sleep_until(*revive);
      self->start();
    }
  }(this, &loop, at, restart_at));
}

sim::Task<ByteBuf> McServer::handle(ByteBuf request, net::NodeId) {
  sim::EventLoop& loop = rpc_.fabric().loop();
  const std::uint64_t in_bytes = request.size();
  std::size_t keys = 1;
  ByteBuf response =
      handle_request(cache_, std::move(request), loop.now(), &keys);
  const SimDuration service =
      kMcdBaseService + keys * kMcdPerKeyService +
      transfer_time(in_bytes + response.size(), kMcdCopyBps);
  co_await worker_.use(service);
  co_return response;
}

}  // namespace imca::memcache
