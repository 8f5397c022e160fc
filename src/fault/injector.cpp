#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rcsim::fault {

FaultInjector::FaultInjector(Network& net, FaultPlan plan, ProtocolFactory factory)
    : net_{net}, plan_{std::move(plan)}, factory_{std::move(factory)} {}

void FaultInjector::install() {
  auto& sched = net_.scheduler();
  // An index into the const plan, not a copy of the event, keeps the
  // callback inside the scheduler's inline storage.
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    sched.scheduleAt(plan_.events[i].at, EventKind::Fault, [this, i] { apply(plan_.events[i]); });
  }
}

Link& FaultInjector::mustFindLink(NodeId a, NodeId b) const {
  Link* l = net_.findLink(a, b);
  if (l == nullptr) {
    throw std::runtime_error("fault-plan: no link " + std::to_string(a) + "-" +
                             std::to_string(b) + " in this topology");
  }
  return *l;
}

void FaultInjector::mustFindNode(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= net_.nodeCount()) {
    throw std::runtime_error("fault-plan: no node " + std::to_string(n) + " in this topology");
  }
}

void FaultInjector::eachTargetLink(const FaultEvent& ev, const std::function<void(Link&)>& fn) {
  if (ev.allLinks) {
    for (const auto& l : net_.links()) fn(*l);
    return;
  }
  fn(mustFindLink(ev.a, ev.b));
}

void FaultInjector::apply(const FaultEvent& ev) {
  // Fires exactly once, before the first plan event mutates anything — the
  // scenario layer snapshots pre-fault routing state here.
  if (onFirstFault_) {
    auto cb = std::move(onFirstFault_);
    onFirstFault_ = nullptr;
    cb();
  }
  net_.trace().emit(net_.scheduler().now(), obs::TraceKind::FaultApply, ev.a, ev.b,
                    static_cast<std::int64_t>(ev.kind));
  switch (ev.kind) {
    case FaultKind::LinkFail: {
      Link& l = mustFindLink(ev.a, ev.b);
      if (l.isUp()) ++linkFailures_;
      l.fail();
      break;
    }
    case FaultKind::LinkRecover: {
      Link& l = mustFindLink(ev.a, ev.b);
      if (!l.isUp()) ++linkRecoveries_;
      l.recover();
      break;
    }
    case FaultKind::NodeCrash:
      crash(ev.a);
      break;
    case FaultKind::NodeRestart:
      restart(ev.a);
      break;
    case FaultKind::LinkLoss:
      eachTargetLink(ev, [&](Link& l) { l.setLossRate(ev.rate); });
      break;
    case FaultKind::LinkCorrupt:
      eachTargetLink(ev, [&](Link& l) { l.setCorruptRate(ev.rate); });
      break;
    case FaultKind::LinkReorder:
      eachTargetLink(ev, [&](Link& l) { l.setReorder(ev.rate, ev.jitter); });
      break;
    case FaultKind::DetectDelay:
      mustFindLink(ev.a, ev.b).setDetectDelay(ev.detect);
      break;
    case FaultKind::Partition:
      partition(ev.group);
      break;
    case FaultKind::Heal:
      heal(ev.group);
      break;
    case FaultKind::CtrlLoss:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlLossRate(ev.rate); });
      break;
    case FaultKind::CtrlDelay:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlDelay(ev.jitter); });
      break;
    case FaultKind::CtrlDup:
      eachTargetLink(ev, [&](Link& l) { l.setCtrlDupRate(ev.rate); });
      break;
    case FaultKind::FlapBurst:
      flapBurst(ev);
      break;
  }
}

void FaultInjector::flapBurst(const FaultEvent& ev) {
  Link& l = mustFindLink(ev.a, ev.b);  // validate the reference up front
  auto& sched = net_.scheduler();
  const double period = ev.period.toSeconds();
  // Cycle k: fail at k*period, recover half a period later. Failing a link
  // someone else already took down (or recovering one independently failed)
  // is a no-op, mirroring the LinkFail/LinkRecover event semantics.
  for (int k = 0; k < ev.count; ++k) {
    sched.scheduleAfter(Time::seconds(period * k), EventKind::Fault, [this, &l] {
      if (l.isUp()) {
        ++linkFailures_;
        l.fail();
      }
    });
    sched.scheduleAfter(Time::seconds(period * k + period / 2.0), EventKind::Fault, [this, &l] {
      if (!l.isUp()) {
        ++linkRecoveries_;
        l.recover();
      }
    });
  }
}

void FaultInjector::crash(NodeId n) {
  mustFindNode(n);
  if (downNodes_.count(n) != 0) return;
  Node& node = net_.node(n);
  // Salvage the dying protocol's transport counters for end-of-run totals,
  // then destroy it — RIB, timers and sessions all go with it.
  if (auto* proto = node.protocol()) {
    const auto tc = proto->transportCounters();
    lostTransport_.retransmissions += tc.retransmissions;
    lostTransport_.sessionResets += tc.sessionResets;
  }
  node.setProtocol(nullptr);
  // A crashed router's interfaces go dark: fail every up link, remembering
  // which ones so restart only recovers what the crash took down.
  auto& took = crashTookDown_[n];
  took.clear();
  for (const NodeId nb : node.neighbors()) {
    Link* l = node.linkTo(nb);
    if (l != nullptr && l->isUp()) {
      took.push_back(l);
      l->fail();
      ++linkFailures_;
    }
  }
  node.clearRoutes();
  downNodes_.insert(n);
  ++nodeCrashes_;
}

void FaultInjector::restart(NodeId n) {
  mustFindNode(n);
  if (downNodes_.count(n) == 0) return;
  Node& node = net_.node(n);
  for (Link* l : crashTookDown_[n]) {
    if (!l->isUp()) {
      l->recover();
      ++linkRecoveries_;
    }
  }
  crashTookDown_.erase(n);
  downNodes_.erase(n);
  if (factory_) {
    node.setProtocol(factory_(node));
    node.protocol()->start();  // cold boot: empty RIB, fresh adjacencies
  }
  ++nodeRestarts_;
}

std::string FaultInjector::groupKey(std::vector<NodeId> group) {
  std::sort(group.begin(), group.end());
  std::string key;
  for (const NodeId n : group) key += std::to_string(n) + ",";
  return key;
}

void FaultInjector::partition(const std::vector<NodeId>& group) {
  std::set<NodeId> inside(group.begin(), group.end());
  auto& cut = partitionCut_[groupKey(group)];
  for (const auto& l : net_.links()) {
    const bool aIn = inside.count(l->endpointA()) != 0;
    const bool bIn = inside.count(l->endpointB()) != 0;
    if (aIn != bIn && l->isUp()) {
      cut.push_back(l.get());
      l->fail();
      ++linkFailures_;
    }
  }
}

void FaultInjector::heal(const std::vector<NodeId>& group) {
  const auto it = partitionCut_.find(groupKey(group));
  if (it == partitionCut_.end()) return;
  for (Link* l : it->second) {
    if (!l->isUp()) {
      l->recover();
      ++linkRecoveries_;
    }
  }
  partitionCut_.erase(it);
}

}  // namespace rcsim::fault
