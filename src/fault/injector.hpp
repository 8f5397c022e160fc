#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "net/routing_protocol.hpp"

namespace rcsim::fault {

/// Executes a FaultPlan against a live network: schedules every event and
/// applies it at its simulation time. Owned by the Scenario; stateless
/// between runs (one injector per run).
///
/// Node crashes destroy the protocol instance (RIB and session state are
/// genuinely lost), fail the node's up links, and clear its FIB; restarts
/// rebuild the protocol through the injected factory — the injector knows
/// nothing about which protocol a scenario runs.
class FaultInjector {
 public:
  using ProtocolFactory = std::function<std::unique_ptr<RoutingProtocol>(Node&)>;

  FaultInjector(Network& net, FaultPlan plan, ProtocolFactory factory);

  /// Schedule every plan event on the network's scheduler. Call once,
  /// before Scheduler::run. Malformed references (unknown link/node)
  /// surface as std::runtime_error at the event's simulation time.
  void install();

  /// Invoked once, immediately before the first plan event is applied (at
  /// its simulation time). Lets the scenario snapshot pre-fault state
  /// without scheduling any event of its own.
  void setOnFirstFault(std::function<void()> cb) { onFirstFault_ = std::move(cb); }

  [[nodiscard]] bool nodeDown(NodeId n) const { return downNodes_.count(n) != 0; }

  [[nodiscard]] std::uint64_t linkFailures() const { return linkFailures_; }
  [[nodiscard]] std::uint64_t linkRecoveries() const { return linkRecoveries_; }
  [[nodiscard]] std::uint64_t nodeCrashes() const { return nodeCrashes_; }
  [[nodiscard]] std::uint64_t nodeRestarts() const { return nodeRestarts_; }

  /// Transport counters salvaged from protocols destroyed by crashes, so
  /// end-of-run reporting still sees their retransmission/reset totals.
  [[nodiscard]] RoutingProtocol::TransportCounters lostTransportCounters() const {
    return lostTransport_;
  }

 private:
  void apply(const FaultEvent& ev);
  void crash(NodeId n);
  void restart(NodeId n);
  void partition(const std::vector<NodeId>& group);
  void heal(const std::vector<NodeId>& group);
  void flapBurst(const FaultEvent& ev);
  /// Apply `fn` to the event's target link(s); throws on a dangling ref.
  void eachTargetLink(const FaultEvent& ev, const std::function<void(Link&)>& fn);
  [[nodiscard]] Link& mustFindLink(NodeId a, NodeId b) const;
  void mustFindNode(NodeId n) const;
  [[nodiscard]] static std::string groupKey(std::vector<NodeId> group);

  Network& net_;
  const FaultPlan plan_;  ///< Read-only: scheduled events index into it.
  ProtocolFactory factory_;
  std::function<void()> onFirstFault_;
  std::set<NodeId> downNodes_;
  /// Links this injector took down when crashing a node, to recover on
  /// restart (and only those — independently failed links stay down).
  std::map<NodeId, std::vector<Link*>> crashTookDown_;
  /// Links cut per partition group, to recover on the matching heal.
  std::map<std::string, std::vector<Link*>> partitionCut_;
  RoutingProtocol::TransportCounters lostTransport_;
  std::uint64_t linkFailures_ = 0;
  std::uint64_t linkRecoveries_ = 0;
  std::uint64_t nodeCrashes_ = 0;
  std::uint64_t nodeRestarts_ = 0;
};

}  // namespace rcsim::fault
