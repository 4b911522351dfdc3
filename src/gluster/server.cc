#include "gluster/server.h"

#include <cassert>

namespace imca::gluster {
namespace {

// The paper's 8-disk array.
constexpr std::size_t kBrickRaidMembers = 8;

}  // namespace

GlusterServer::GlusterServer(net::RpcSystem& rpc, net::NodeId node,
                             GlusterServerParams params)
    : rpc_(rpc),
      node_(node),
      params_(params),
      dev_(rpc.fabric().loop(), kBrickRaidMembers, params.page_cache_bytes,
           "brick" + std::to_string(node)) {
  stack_.push_back(std::make_unique<PosixXlator>(
      rpc_.fabric().loop(), rpc_.fabric().node(node_), os_, dev_));
  auto io = std::make_unique<IoThreadsXlator>(
      rpc_.fabric().loop(), params_.io_threads, params_.io_queue_limit);
  io->set_child(stack_.back().get());
  io_ = io.get();
  stack_.push_back(std::move(io));
}

void GlusterServer::push_translator(std::unique_ptr<Xlator> xlator) {
  assert(!started_ && "translators must be pushed before start()");
  xlator->set_child(stack_.back().get());
  stack_.push_back(std::move(xlator));
}

void GlusterServer::start() {
  started_ = true;
  up_ = true;
  rpc_.listen(node_, net::kPortGluster,
              [this](ByteBuf req, net::NodeId from) -> sim::Task<ByteBuf> {
                return handle(std::move(req), from);
              });
}

void GlusterServer::crash() {
  if (!up_) return;
  up_ = false;
  rpc_.shutdown(node_, net::kPortGluster);
  ++boot_epoch_;  // invalidates every in-flight reply (see handle())
  ++stats_.crashes;
  // Volatile state dies with the process; the ObjectStore is the disk.
  dev_.drop_caches();
  for (auto& x : stack_) x->on_server_crash();
}

void GlusterServer::restart() {
  if (up_) return;
  ++stats_.restarts;
  for (auto& x : stack_) x->on_server_restart();
  start();
}

void GlusterServer::schedule_crash(SimTime at,
                                   std::optional<SimTime> restart_at) {
  sim::EventLoop& loop = rpc_.fabric().loop();
  loop.spawn([](GlusterServer* self, sim::EventLoop* lp, SimTime when,
                std::optional<SimTime> revive) -> sim::Task<void> {
    co_await lp->sleep_until(when);
    self->crash();
    if (revive) {
      co_await lp->sleep_until(*revive);
      self->restart();
    }
  }(this, &loop, at, restart_at));
}

const FopReply* GlusterServer::window_lookup(std::uint64_t client_id,
                                             std::uint64_t seq) const {
  const auto it = windows_.find(client_id);
  if (it == windows_.end()) return nullptr;
  for (const auto& slot : it->second.slots) {
    if (slot.seq == seq) return &slot.reply;
  }
  return nullptr;
}

void GlusterServer::window_record(std::uint64_t client_id, std::uint64_t seq,
                                  const FopReply& reply) {
  ClientWindow& w = windows_[client_id];
  for (const auto& slot : w.slots) {
    if (slot.seq == seq) {
      // The same mutation ran through the stack twice — the dedup lookup in
      // process() exists to make this impossible. Counted, never expected.
      ++stats_.duplicate_applies;
      return;
    }
  }
  w.slots.push_back(ReplaySlot{seq, reply});
  if (w.slots.size() > kReplayWindow) w.slots.pop_front();
}

sim::Task<ByteBuf> GlusterServer::handle(ByteBuf request, net::NodeId) {
  ++stats_.fops;
  const std::uint64_t epoch = boot_epoch_;
  const SimTime arrival = rpc_.fabric().loop().now();
  co_await rpc_.fabric().node(node_).cpu().use(kFopDispatchCpu);
  auto req = FopRequest::decode(request);
  FopReply reply;
  if (!req) {
    reply.errc = Errc::kProto;
  } else {
    reply = co_await process(std::move(*req), arrival);
  }
  if (epoch != boot_epoch_) {
    // The brick crashed while this fop was in flight. Whatever the stack
    // did may be on disk, but the connection died with the process — the
    // client sees a reset and cannot tell, hence the replay machinery.
    ++stats_.replies_lost_in_crash;
    reply = FopReply{};
    reply.errc = Errc::kConnReset;
  }
  co_return reply.encode();
}

sim::Task<FopReply> GlusterServer::process(FopRequest req, SimTime arrival) {
  if (req.retry != 0) ++stats_.replays_seen;
  const std::uint64_t client_id = req.client_id;
  const std::uint64_t op_seq = req.op_seq;
  // A replayed mutation the brick already applied is answered from the
  // window, never re-applied: this is the exactly-once half the client's
  // at-least-once retry loop needs.
  if (op_seq > 0) {
    for (;;) {
      if (const FopReply* recorded = window_lookup(client_id, op_seq)) {
        ++stats_.replays_deduped;
        co_return *recorded;
      }
      // A replay can overtake its original: the client's attempt timeout can
      // fire while the first send is still inside dispatch (slow disk, queue
      // pressure), so the retry arrives before anything was recorded.
      // Re-dispatching would apply the mutation twice — park on the original
      // and answer from whatever it records.
      const auto it =
          inflight_mutations_.find(std::make_pair(client_id, op_seq));
      if (it == inflight_mutations_.end()) break;
      const std::shared_ptr<sim::Event> original_done = it->second;
      ++stats_.replays_parked;
      co_await original_done->wait();
      // Nothing may be recorded after the wake (the original was shed with
      // kBusy before applying anything). If several replays of this fop were
      // parked, the first one to resume becomes the new original and inserts
      // a fresh in-flight entry — so loop and re-check BOTH tables: falling
      // through here on a window miss alone would dispatch the mutation
      // concurrently with that new original, applying it twice.
    }
    // Neither recorded nor in flight: running the mutation now is its first
    // application. No suspension point between here and the in-flight
    // insert below, so this claim cannot race with another replay.
  }
  FopReply rep;
  if (params_.admission_limit > 0 && inflight_ >= params_.admission_limit) {
    ++stats_.sheds_admission;
    rep.errc = Errc::kBusy;
    co_return rep;
  }
  if (req.ttl > 0 && rpc_.fabric().loop().now() > arrival + req.ttl) {
    // The client's deadline for this attempt passed while we queued on the
    // CPU; it has already timed out and moved on, and doing the work anyway
    // only steals time from requests that can still meet theirs. kBusy is
    // safe to send for mutations: the op was NOT applied, so the retry is
    // not a duplicate.
    ++stats_.sheds_expired;
    rep.errc = Errc::kBusy;
    co_return rep;
  }
  std::shared_ptr<sim::Event> done;
  if (op_seq > 0) {
    done = std::make_shared<sim::Event>(rpc_.fabric().loop());
    inflight_mutations_[std::make_pair(client_id, op_seq)] = done;
  }
  ++inflight_;
  rep = co_await dispatch(std::move(req));
  --inflight_;
  // Record after the apply, unconditionally — even if the brick "crashed"
  // mid-dispatch. The window models a journal entry committed with the
  // mutation itself: in this simulation the stack always runs to
  // completion, so apply and record are inseparable, and a post-crash
  // replay finds the recorded reply instead of re-applying.
  if (op_seq > 0) {
    if (rep.errc != Errc::kBusy) window_record(client_id, op_seq, rep);
    inflight_mutations_.erase(std::make_pair(client_id, op_seq));
    done->set();  // wake any parked replays; they re-check the window
  }
  co_return rep;
}

sim::Task<FopReply> GlusterServer::dispatch(FopRequest req) {
  Xlator& x = top();
  FopReply rep;
  switch (req.type) {
    case FopType::kCreate: {
      auto r = co_await x.create(req.path, req.mode);
      rep.errc = r.error();
      if (r) rep.attr = *r;
      break;
    }
    case FopType::kOpen: {
      auto r = co_await x.open(req.path);
      rep.errc = r.error();
      if (r) rep.attr = *r;
      break;
    }
    case FopType::kClose: {
      rep.errc = (co_await x.close(req.path)).error();
      break;
    }
    case FopType::kStat: {
      auto r = co_await x.stat(req.path);
      rep.errc = r.error();
      if (r) rep.attr = *r;
      break;
    }
    case FopType::kRead: {
      auto r = co_await x.read(req.path, req.offset, req.length);
      rep.errc = r.error();
      if (r) rep.data = std::move(*r);
      break;
    }
    case FopType::kWrite: {
      auto r = co_await x.write(req.path, req.offset, std::move(req.data));
      rep.errc = r.error();
      if (r) rep.count = *r;
      break;
    }
    case FopType::kUnlink: {
      rep.errc = (co_await x.unlink(req.path)).error();
      break;
    }
    case FopType::kTruncate: {
      rep.errc = (co_await x.truncate(req.path, req.offset)).error();
      break;
    }
    case FopType::kRename: {
      rep.errc = (co_await x.rename(req.path, req.path2)).error();
      break;
    }
    case FopType::kFsync: {
      rep.errc = (co_await x.fsync(req.path)).error();
      break;
    }
  }
  co_return rep;
}

}  // namespace imca::gluster
