#include "stats/collector.hpp"

#include <unordered_set>

#include "net/packet.hpp"

namespace rcsim {
namespace {

bool hasRepeatedNode(const std::vector<NodeId>& trace) {
  std::unordered_set<NodeId> seen;
  for (const NodeId n : trace) {
    if (!seen.insert(n).second) return true;
  }
  return false;
}

void bump(PacketCounters& c, DropReason reason) {
  switch (reason) {
    case DropReason::NoRoute: ++c.dropNoRoute; break;
    case DropReason::TtlExpired: ++c.dropTtl; break;
    case DropReason::QueueOverflow: ++c.dropQueue; break;
    case DropReason::LinkDown: ++c.dropLinkDown; break;
    case DropReason::InFlightCut: ++c.dropInFlightCut; break;
    case DropReason::RandomLoss: ++c.dropLoss; break;
    case DropReason::Corrupted: ++c.dropCorrupt; break;
  }
}

}  // namespace

StatsCollector::StatsCollector(Network& net, Config cfg) : net_{net} {
  if (cfg.sender != kInvalidNode && cfg.receiver != kInvalidNode) {
    tracer_.emplace(cfg.sender, cfg.receiver, net.nodeCount());
  }
  net_.addObserver(this);
}

StatsCollector::~StatsCollector() { net_.removeObserver(this); }

void StatsCollector::setFailureWatermark(Time t) {
  watermark_ = t;
  routeLog_.setWatermark(t);
}

void StatsCollector::onForward(Time, NodeId, const Packet& p, NodeId) {
  if (p.kind == PacketKind::Data) ++data_.forwarded;
}

void StatsCollector::onRouteChange(Time t, NodeId node, NodeId dst, NodeId, NodeId newNh) {
  routeLog_.record(t);
  if (tracer_) tracer_->onRouteChange(t, node, dst, newNh);
}

void StatsCollector::onControlSend(Time t, NodeId, NodeId, const ControlPayload& payload) {
  ++controlMessages_;
  controlBytes_ += payload.sizeBytes();
  if (t >= watermark_) ++controlMessagesAfter_;
}

void StatsCollector::onDrop(Time t, NodeId /*where*/, const Packet& p, DropReason reason) {
  if (p.kind != PacketKind::Data) {
    bump(control_, reason);
    return;
  }
  bump(data_, reason);
  if (t >= watermark_) bump(dataAfter_, reason);
}

void StatsCollector::onDeliver(Time t, NodeId /*node*/, const Packet& p) {
  if (p.kind != PacketKind::Data) return;
  ++data_.delivered;
  if (p.trace != nullptr && hasRepeatedNode(*p.trace)) ++loopEscaped_;
  series_.recordDelivery(t, (t - p.sendTime).toSeconds());
}

}  // namespace rcsim
