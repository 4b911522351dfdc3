#include "net/fault.h"

namespace imca::net {

FaultDecision FaultInjector::decide(NodeId node, std::uint16_t port) {
  FaultDecision d;
  const auto it = specs_.find({node, port});
  if (it == specs_.end()) return d;
  const FaultSpec& spec = it->second;

  // One uniform draw per probability, in a fixed order, so a run is
  // reproducible bit-for-bit from the seed regardless of which faults fire.
  if (rng_.chance(spec.drop_request)) {
    d.kind = FaultKind::kDropRequest;
    ++stats_.drops_request;
    return d;
  }
  if (rng_.chance(spec.drop_reply)) {
    d.kind = FaultKind::kDropReply;
    ++stats_.drops_reply;
    return d;
  }
  if (rng_.chance(spec.slow_reply)) {
    d.kind = FaultKind::kSlowReply;
    d.slow_delay = spec.slow_delay;
    ++stats_.slow_replies;
    return d;
  }
  if (rng_.chance(spec.short_read)) {
    d.kind = FaultKind::kShortRead;
    d.cut_draw = rng_.next();
    ++stats_.short_reads;
    return d;
  }
  ++stats_.clean_calls;
  return d;
}

}  // namespace imca::net
