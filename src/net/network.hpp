#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rcsim {

class HelloDetector;

/// The in-process event interface: the stats collector, the runtime
/// invariant checker and test probes subclass it and attach through
/// Network::addObserver. Every call site funnels through Network::notify*,
/// so every observer and the typed Tracer see one stream with identical
/// arguments. All callbacks default to no-ops.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void onDrop(Time, NodeId /*where*/, const Packet&, DropReason) {}
  virtual void onDeliver(Time, NodeId, const Packet&) {}
  virtual void onForward(Time, NodeId, const Packet&, NodeId /*nextHop*/) {}
  virtual void onOriginate(Time, NodeId, const Packet&) {}
  virtual void onRouteChange(Time, NodeId /*node*/, NodeId /*dst*/, NodeId /*oldNh*/,
                             NodeId /*newNh*/) {}
  virtual void onControlSend(Time, NodeId /*from*/, NodeId /*to*/, const ControlPayload&) {}
  /// A packet was accepted for serialization on the wire (never fires for
  /// queue/down-link drops).
  virtual void onLinkTransmit(Time, NodeId /*from*/, NodeId /*to*/, bool /*linkUp*/) {}
  virtual void onLinkStateChange(Time, NodeId /*a*/, NodeId /*b*/, bool /*up*/) {}
};

/// Owns every node and link of one simulated network and wires them to a
/// scheduler. Also provides the topology queries (live shortest paths, FIB
/// walks) the convergence metrics are built on.
class Network {
 public:
  Network(Scheduler& sched, Rng rng);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] obs::Tracer& trace() { return trace_; }
  [[nodiscard]] const obs::Tracer& trace() const { return trace_; }

  /// The network-owned RNG, forked per node at creation; fault injection
  /// draws impairment outcomes from it (single-threaded, deterministic).
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Attach/detach an observer (not owned). Observers are notified in
  /// attach order; one destroyed before the network must detach first.
  void addObserver(NetworkObserver* obs) { observers_.push_back(obs); }
  void removeObserver(NetworkObserver* obs) { std::erase(observers_, obs); }

  /// Attach the hello-based failure detector (owned by Scenario). While one
  /// is installed, links stop scheduling their oracle handleLinkDown/Up
  /// notifications — missed/resumed hellos are the only detection signal.
  void setDetector(HelloDetector* det) { detector_ = det; }
  [[nodiscard]] HelloDetector* detector() const { return detector_; }

  // Event fan-out: each call site notifies every observer and the typed
  // tracer with identical arguments, so no two layers can disagree. Trace
  // payload construction is guarded by wants(), keeping the disabled path
  // to a null-check.
  void notifyDrop(Time t, NodeId where, const Packet& p, DropReason r) {
    for (NetworkObserver* o : observers_) o->onDrop(t, where, p, r);
    if (trace_.wants(obs::TraceKind::Drop)) {
      trace_.emit(t, obs::TraceKind::Drop, where, kInvalidNode, static_cast<std::int64_t>(p.id),
                  static_cast<std::int64_t>(r), p.kind == PacketKind::Data ? 1 : 0);
    }
  }
  void notifyDeliver(Time t, NodeId node, const Packet& p) {
    for (NetworkObserver* o : observers_) o->onDeliver(t, node, p);
    if (trace_.wants(obs::TraceKind::Deliver)) {
      trace_.emit(t, obs::TraceKind::Deliver, node, p.src, static_cast<std::int64_t>(p.id),
                  p.sendTime.ns(),
                  p.trace ? static_cast<std::int64_t>(p.trace->size()) : 0);
    }
  }
  void notifyForward(Time t, NodeId node, const Packet& p, NodeId nh) {
    for (NetworkObserver* o : observers_) o->onForward(t, node, p, nh);
    if (trace_.wants(obs::TraceKind::Forward)) {
      trace_.emit(t, obs::TraceKind::Forward, node, nh, static_cast<std::int64_t>(p.id), p.ttl,
                  p.dst);
    }
  }
  void notifyOriginate(Time t, NodeId node, const Packet& p) {
    for (NetworkObserver* o : observers_) o->onOriginate(t, node, p);
    if (trace_.wants(obs::TraceKind::Originate)) {
      trace_.emit(t, obs::TraceKind::Originate, node, p.dst, static_cast<std::int64_t>(p.id));
    }
  }
  void notifyRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) {
    for (NetworkObserver* o : observers_) o->onRouteChange(t, node, dst, oldNh, newNh);
    if (trace_.wants(obs::TraceKind::RouteChange)) {
      trace_.emit(t, obs::TraceKind::RouteChange, node, kInvalidNode, dst, oldNh, newNh);
    }
  }
  void notifyControlSend(Time t, NodeId from, NodeId to, const ControlPayload& payload) {
    for (NetworkObserver* o : observers_) o->onControlSend(t, from, to, payload);
    if (trace_.wants(obs::TraceKind::ControlSend)) {
      trace_.emit(t, obs::TraceKind::ControlSend, from, to,
                  static_cast<std::int64_t>(payload.sizeBytes()));
    }
  }
  void notifyLinkTransmit(Time t, NodeId from, NodeId to, bool linkUp) {
    for (NetworkObserver* o : observers_) o->onLinkTransmit(t, from, to, linkUp);
  }
  void notifyLinkStateChange(Time t, NodeId a, NodeId b, bool up) {
    for (NetworkObserver* o : observers_) o->onLinkStateChange(t, a, b, up);
    trace_.emit(t, up ? obs::TraceKind::LinkUp : obs::TraceKind::LinkDown, a, b);
  }

  /// Create a node; ids are dense and assigned in creation order.
  NodeId addNode();
  Link& addLink(NodeId a, NodeId b, const LinkConfig& cfg);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] std::size_t nodeCount() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  [[nodiscard]] Link* findLink(NodeId a, NodeId b) const;

  /// Size every FIB to the final node count. Call after all addNode calls
  /// and before starting protocols. `ecmp` enables multi-next-hop FIB
  /// entries (protocols install equal-cost alternates, the data plane
  /// spreads flows over them); off by default so single-path behavior —
  /// and every golden digest — is untouched.
  void finalize(bool ecmp = false);

  /// Start every node's routing protocol.
  void startProtocols();

  std::uint64_t nextPacketId() { return nextPacketId_++; }

  /// Packets crossing a link wait here between their link events, so those
  /// events capture a slot index instead of a 96-byte Packet and fit the
  /// scheduler's inline callback storage. One slab per network (not per
  /// link) keeps it sized by the packets in flight network-wide.
  std::uint32_t park(Packet&& p) {
    if (freeParked_.empty()) {
      parked_.push_back(std::move(p));
      return static_cast<std::uint32_t>(parked_.size() - 1);
    }
    const std::uint32_t slot = freeParked_.back();
    freeParked_.pop_back();
    parked_[slot] = std::move(p);
    return slot;
  }
  /// The packet in `slot`; invalidated by the next park().
  [[nodiscard]] const Packet& parked(std::uint32_t slot) const { return parked_[slot]; }
  /// Move the packet out of `slot` and free the slot.
  Packet take(std::uint32_t slot) {
    Packet p = std::move(parked_[slot]);
    freeParked_.push_back(slot);
    return p;
  }

  /// Shortest path over currently-up links (BFS, unit costs), inclusive of
  /// both endpoints. Empty when unreachable.
  [[nodiscard]] std::vector<NodeId> shortestPathLive(NodeId src, NodeId dst) const;

  /// Hop distance over currently-up links; -1 when unreachable.
  [[nodiscard]] int shortestDistLive(NodeId src, NodeId dst) const;

  /// Walk FIBs from src toward dst. Returns the node sequence; sets *loop
  /// if a node repeats and *blackhole if some node had no route.
  [[nodiscard]] std::vector<NodeId> fibWalk(NodeId src, NodeId dst, bool* loop = nullptr,
                                            bool* blackhole = nullptr) const;

 private:
  Scheduler& sched_;
  Rng rng_;
  obs::Tracer trace_;
  std::vector<NetworkObserver*> observers_;
  HelloDetector* detector_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t nextPacketId_ = 1;
  std::vector<Packet> parked_;
  std::vector<std::uint32_t> freeParked_;
};

}  // namespace rcsim
