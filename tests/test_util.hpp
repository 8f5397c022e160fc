#pragma once

// Shared test harness: builds a Network from a Topology with one protocol
// kind everywhere, ready to run — a miniature of core/Scenario for unit
// tests on arbitrary hand-made graphs.

#include <functional>
#include <memory>

#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/scheduler.hpp"
#include "topo/topology.hpp"

namespace rcsim::testutil {

/// A NetworkObserver whose callbacks are optional std::function slots, for
/// tests that watch one or two event kinds. Attaches on construction and
/// detaches on destruction, so it must not outlive its network.
class NetworkProbe final : public NetworkObserver {
 public:
  explicit NetworkProbe(Network& net) : net_{net} { net_.addObserver(this); }
  ~NetworkProbe() override { net_.removeObserver(this); }
  NetworkProbe(const NetworkProbe&) = delete;
  NetworkProbe& operator=(const NetworkProbe&) = delete;

  std::function<void(Time, NodeId where, const Packet&, DropReason)> drop;
  std::function<void(Time, NodeId, const Packet&)> deliver;
  std::function<void(Time, NodeId, const Packet&, NodeId nextHop)> forward;
  std::function<void(Time, NodeId, const Packet&)> originate;
  std::function<void(Time, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh)> routeChange;
  std::function<void(Time, NodeId from, NodeId to, const ControlPayload&)> controlSend;

  void onDrop(Time t, NodeId where, const Packet& p, DropReason r) override {
    if (drop) drop(t, where, p, r);
  }
  void onDeliver(Time t, NodeId node, const Packet& p) override {
    if (deliver) deliver(t, node, p);
  }
  void onForward(Time t, NodeId node, const Packet& p, NodeId nh) override {
    if (forward) forward(t, node, p, nh);
  }
  void onOriginate(Time t, NodeId node, const Packet& p) override {
    if (originate) originate(t, node, p);
  }
  void onRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) override {
    if (routeChange) routeChange(t, node, dst, oldNh, newNh);
  }
  void onControlSend(Time t, NodeId from, NodeId to, const ControlPayload& payload) override {
    if (controlSend) controlSend(t, from, to, payload);
  }

 private:
  Network& net_;
};

class TestNet {
 public:
  explicit TestNet(const Topology& topo, ProtocolKind kind,
                   ProtocolConfig protoCfg = {}, LinkConfig linkCfg = {},
                   std::uint64_t seed = 1, bool ecmp = false)
      : net_{sched_, Rng{seed}} {
    for (int i = 0; i < topo.nodeCount; ++i) net_.addNode();
    for (const auto& [a, b] : topo.edges) net_.addLink(a, b, linkCfg);
    net_.finalize(ecmp);
    for (NodeId id = 0; id < static_cast<NodeId>(net_.nodeCount()); ++id) {
      Node& node = net_.node(id);
      node.setProtocol(makeProtocol(kind, node, protoCfg));
    }
  }

  /// Start protocols and run until `horizon`.
  void warmUp(Time horizon) {
    net_.startProtocols();
    sched_.run(horizon);
  }

  void runUntil(Time horizon) { sched_.run(horizon); }

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] Network& net() { return net_; }
  /// An observer attached for the TestNet's whole life; set its slots.
  [[nodiscard]] NetworkProbe& probe() { return probe_; }
  [[nodiscard]] Node& node(NodeId id) { return net_.node(id); }
  [[nodiscard]] NodeId nextHop(NodeId node, NodeId dst) {
    return net_.node(node).fib().nextHop(dst);
  }

  template <typename P>
  [[nodiscard]] P& protocolAs(NodeId id) {
    return dynamic_cast<P&>(*net_.node(id).protocol());
  }

 private:
  Scheduler sched_;
  Network net_;
  NetworkProbe probe_{net_};
};

/// A path graph 0-1-2-...-(n-1).
inline Topology lineTopology(int n) {
  Topology t;
  t.nodeCount = n;
  for (NodeId i = 0; i + 1 < n; ++i) t.edges.emplace_back(i, i + 1);
  return t;
}

/// A cycle 0-1-...-(n-1)-0.
inline Topology ringTopology(int n) {
  Topology t = lineTopology(n);
  t.edges.emplace_back(0, n - 1);
  return t;
}

/// Two disjoint paths between 0 and n-1 (a "theta" without the middle bar):
/// 0-1-...-k-(n-1) and 0-(k+1)-...-(n-2)-(n-1).
inline Topology twoPathTopology() {
  // 0 - 1 - 4, 0 - 2 - 3 - 4: a 4-hop alternative to a 2-hop primary.
  Topology t;
  t.nodeCount = 5;
  t.edges = {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}};
  return t;
}

}  // namespace rcsim::testutil
