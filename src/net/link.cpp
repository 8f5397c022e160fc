#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "net/network.hpp"

namespace rcsim {

Link::Link(Network& net, NodeId a, NodeId b, LinkConfig cfg)
    : net_{net}, a_{a}, b_{b}, cfg_{cfg} {
  assert(a != b);
  assert(cfg.bandwidthBps > 0.0);
}

Time Link::transmissionTime(const Packet& p) const {
  return Time::seconds(static_cast<double>(p.sizeBytes) * 8.0 / cfg_.bandwidthBps);
}

void Link::send(NodeId from, Packet&& p) {
  auto& sched = net_.scheduler();
  if (!up_) {
    net_.notifyDrop(sched.now(), from, p, DropReason::LinkDown);
    return;
  }
  const int dir = directionFrom(from);
  auto& d = dirs_[dir];
  if (d.queue.size() >= cfg_.queueCapacity) {
    net_.notifyDrop(sched.now(), from, p, DropReason::QueueOverflow);
    return;
  }
  d.queue.push_back(std::move(p));
  if (!d.transmitting) startTransmission(dir);
}

void Link::startTransmission(int dir) {
  auto& d = dirs_[dir];
  assert(!d.queue.empty());
  d.transmitting = true;
  auto& sched = net_.scheduler();
  const Time txDone = transmissionTime(d.queue.front());
  const std::uint32_t slot = net_.park(std::move(d.queue.front()));
  d.queue.pop_front();
  const std::uint64_t epoch = epoch_;
  net_.notifyLinkTransmit(sched.now(), dir == 0 ? a_ : b_, receiverOf(dir), up_);
  // Serialization completes first; then the bits propagate. If the link
  // fails in between, the packet is lost (epoch check). The packet stays
  // parked on the network across both events.
  sched.scheduleAfter(txDone, EventKind::LinkDelivery, [this, dir, epoch, slot] {
    auto& d2 = dirs_[dir];
    d2.transmitting = false;
    if (up_ && epoch == epoch_) {
      const NodeId to = receiverOf(dir);
      const NodeId from = peerOf(to);
      // Reordering impairment: some packets pick up extra propagation
      // delay, letting later packets overtake them. Rate 0 draws nothing.
      Time prop = cfg_.propDelay;
      if (reorderRate_ > 0.0 && net_.rng().uniform01() < reorderRate_) {
        prop = prop + Time::seconds(net_.rng().uniform(0.0, reorderJitter_.toSeconds()));
      }
      // Control-plane delay impairment: fixed extra propagation for control
      // packets only (hellos, routing updates). No randomness involved.
      if (net_.parked(slot).kind == PacketKind::Control && ctrlDelay_ > Time::zero()) {
        prop = prop + ctrlDelay_;
      }
      net_.scheduler().scheduleAfter(prop, EventKind::LinkDelivery,
                                     [this, to, from, epoch, slot] { arrive(to, from, epoch, slot); });
    } else {
      net_.notifyDrop(net_.scheduler().now(), receiverOf(dir) == b_ ? a_ : b_, net_.take(slot),
                      DropReason::InFlightCut);
    }
    // Restart the transmitter regardless of what happened to this packet:
    // the link may have failed and recovered while we were serializing, in
    // which case fresh packets may already be waiting in the queue.
    if (up_ && !d2.queue.empty()) startTransmission(dir);
  });
}

void Link::arrive(NodeId to, NodeId from, std::uint64_t epoch, std::uint32_t slot) {
  // Unpark first: receive() may forward and park other packets.
  Packet p = net_.take(slot);
  if (!up_ || epoch != epoch_) {
    net_.notifyDrop(net_.scheduler().now(), from, p, DropReason::InFlightCut);
    return;
  }
  const bool ctrl = p.kind == PacketKind::Control;
  // Loss/corruption are decided at arrival, after the wire survived the
  // trip. Corrupted frames fail the checksum and are dropped — same fate as
  // random loss, but accounted separately. Control packets additionally
  // face the control-plane-only loss draw.
  if (ctrl && ctrlLossRate_ > 0.0 && net_.rng().uniform01() < ctrlLossRate_) {
    net_.notifyDrop(net_.scheduler().now(), from, p, DropReason::RandomLoss);
  } else if (lossRate_ > 0.0 && net_.rng().uniform01() < lossRate_) {
    net_.notifyDrop(net_.scheduler().now(), from, p, DropReason::RandomLoss);
  } else if (corruptRate_ > 0.0 && net_.rng().uniform01() < corruptRate_) {
    net_.notifyDrop(net_.scheduler().now(), from, p, DropReason::Corrupted);
  } else {
    // Duplication impairment: the receiver sees the same control packet
    // twice back to back (e.g. a misbehaving relay). Dup state in
    // protocols and the detector must stay idempotent.
    if (ctrl && ctrlDupRate_ > 0.0 && net_.rng().uniform01() < ctrlDupRate_) {
      Packet copy = p;
      net_.node(to).receive(std::move(copy), from);
    }
    net_.node(to).receive(std::move(p), from);
  }
}

void Link::fail() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  auto& sched = net_.scheduler();
  net_.notifyLinkStateChange(sched.now(), a_, b_, /*up=*/false);
  // Everything sitting in the queues is lost.
  for (int dir = 0; dir < 2; ++dir) {
    auto& d = dirs_[dir];
    const NodeId from = dir == 0 ? a_ : b_;
    for (auto& p : d.queue) {
      net_.notifyDrop(sched.now(), from, p, DropReason::InFlightCut);
    }
    d.queue.clear();
  }
  // Both attached nodes detect the failure after the detection delay
  // (paper §5: "detected by the two nodes attached to it within 50 ms") —
  // unless a hello detector is installed, in which case the only signal the
  // nodes get is the hellos that stop arriving.
  if (net_.detector() != nullptr) return;
  failedAt_ = sched.now();
  pendingDetect_ = sched.scheduleAfter(cfg_.detectDelay, EventKind::Detector, [this] {
    pendingDetect_ = EventId{};
    if (up_) return;  // recovered before detection fired
    net_.node(a_).handleLinkDown(b_);
    net_.node(b_).handleLinkDown(a_);
  });
}

void Link::recover() {
  if (up_) return;
  up_ = true;
  auto& sched = net_.scheduler();
  net_.notifyLinkStateChange(sched.now(), a_, b_, /*up=*/true);
  if (net_.detector() != nullptr) return;
  sched.scheduleAfter(cfg_.detectDelay, EventKind::Detector, [this] {
    if (!up_) return;
    net_.node(a_).handleLinkUp(b_);
    net_.node(b_).handleLinkUp(a_);
  });
}

void Link::setDetectDelay(Time d) {
  cfg_.detectDelay = d;
  // A pending down-detection (link already failed, nodes not yet notified)
  // must follow the new delay: cancel and re-time it against the original
  // failure instant, clamping to "now" when the new deadline already passed.
  if (up_ || !pendingDetect_.valid()) return;
  auto& sched = net_.scheduler();
  sched.cancel(pendingDetect_);
  pendingDetect_ = sched.scheduleAt(failedAt_ + d, EventKind::Detector, [this] {
    pendingDetect_ = EventId{};
    if (up_) return;
    net_.node(a_).handleLinkDown(b_);
    net_.node(b_).handleLinkDown(a_);
  });
}

}  // namespace rcsim
