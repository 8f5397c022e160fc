#include "fault/invariants.hpp"

#include <sstream>

#include "net/fib.hpp"
#include "net/packet.hpp"

namespace rcsim::fault {
namespace {

std::string describePacket(const Packet& p) {
  std::ostringstream os;
  os << (p.kind == PacketKind::Data ? "data" : "ctrl") << "#" << p.id << " " << p.src << "->"
     << p.dst << " ttl=" << static_cast<int>(p.ttl);
  return os.str();
}

}  // namespace

std::string Violation::format() const {
  std::ostringstream os;
  os << "invariant '" << invariant << "' violated at t=" << at.toSeconds() << "s node=" << node
     << ": " << detail;
  if (!trail.empty()) {
    os << "\n  event trail (oldest first):";
    for (const auto& line : trail) os << "\n    " << line;
  }
  return os.str();
}

InvariantChecker::InvariantChecker(Network& net) : net_{net} { net_.addObserver(this); }

InvariantChecker::~InvariantChecker() { net_.removeObserver(this); }

void InvariantChecker::note(Time t, std::string what) {
  if (trail_.size() >= kTrailLength) trail_.pop_front();
  std::ostringstream os;
  os << "t=" << t.toSeconds() << "s " << what;
  trail_.push_back(os.str());
}

void InvariantChecker::record(Time at, NodeId node, const char* invariant, std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.at = at;
  v.node = node;
  v.invariant = invariant;
  v.detail = std::move(detail);
  v.trail.assign(trail_.begin(), trail_.end());
  violations_.push_back(std::move(v));
}

void InvariantChecker::checkConservation(Time at) {
  if (delivered_ + dropped_ <= originated_) return;
  std::ostringstream os;
  os << "delivered(" << delivered_ << ") + dropped(" << dropped_ << ") > originated("
     << originated_ << ")";
  record(at, kInvalidNode, "packet-conservation", os.str());
}

void InvariantChecker::onDrop(Time t, NodeId where, const Packet& p, DropReason r) {
  note(t, "drop[" + std::string{toString(r)} + "] at " + std::to_string(where) + " " +
              describePacket(p));
  if (p.kind != PacketKind::Data) return;
  ++dropped_;
  checkConservation(t);
  if (r == DropReason::TtlExpired) {
    const auto* proto = net_.node(where).protocol();
    ++loopsByProtocol_[proto != nullptr ? proto->name() : "(no protocol)"];
  }
}

void InvariantChecker::onDeliver(Time t, NodeId node, const Packet& p) {
  if (p.kind != PacketKind::Data) return;
  note(t, "deliver at " + std::to_string(node) + " " + describePacket(p));
  ++delivered_;
  checkConservation(t);
}

void InvariantChecker::onForward(Time t, NodeId node, const Packet& p, NodeId nextHop) {
  if (p.ttl <= 0) {
    record(t, node,
           "ttl-exhausted-forward", describePacket(p) + " forwarded toward " +
               std::to_string(nextHop) + " with ttl <= 0");
  }
}

void InvariantChecker::onOriginate(Time t, NodeId node, const Packet& p) {
  if (p.kind != PacketKind::Data) return;
  note(t, "originate at " + std::to_string(node) + " " + describePacket(p));
  ++originated_;
}

void InvariantChecker::onRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh,
                                     NodeId newNh) {
  note(t, "route at " + std::to_string(node) + " dst=" + std::to_string(dst) + " " +
              std::to_string(oldNh) + "->" + std::to_string(newNh));
  if (newNh == kInvalidNode) return;
  checkFibEntry(t, node, dst, newNh);
}

void InvariantChecker::checkFibEntry(Time at, NodeId node, NodeId dst, NodeId nh) {
  if (nh == node) {
    record(at, node, "fib-invalid-nexthop",
           "route for dst " + std::to_string(dst) + " points at the node itself");
    return;
  }
  if (net_.node(node).linkTo(nh) == nullptr) {
    record(at, node, "fib-invalid-nexthop",
           "route for dst " + std::to_string(dst) + " points at " + std::to_string(nh) +
               ", which is not an attached neighbor");
  }
}

void InvariantChecker::onLinkTransmit(Time t, NodeId from, NodeId to, bool linkUp) {
  if (!linkUp) {
    record(t, from, "transmit-on-down-link",
           "link " + std::to_string(from) + "-" + std::to_string(to) +
               " accepted a packet while down");
  }
}

void InvariantChecker::onLinkStateChange(Time t, NodeId a, NodeId b, bool up) {
  note(t, "link " + std::to_string(a) + "-" + std::to_string(b) + (up ? " up" : " down"));
}

void InvariantChecker::finalCheck(Time at) {
  checkConservation(at);
  // Sweep the full entry set, not just the primary: with ECMP on, a stale
  // alternate pointing at a detached neighbor is as much a forwarding bug
  // as a bad primary (the data plane may pick it via the flow hash).
  NodeId hops[Fib::kMaxNextHops];
  for (NodeId n = 0; n < static_cast<NodeId>(net_.nodeCount()); ++n) {
    const auto& fib = net_.node(n).fib();
    for (NodeId dst = 0; dst < static_cast<NodeId>(fib.size()); ++dst) {
      const int count = fib.nextHops(dst, hops);
      for (int k = 0; k < count; ++k) checkFibEntry(at, n, dst, hops[k]);
    }
  }
}

std::string InvariantChecker::summary() const {
  std::string out;
  for (const auto& v : violations_) {
    if (!out.empty()) out += '\n';
    out += v.format();
  }
  if (violations_.size() >= kMaxViolations) {
    out += "\n(further violations suppressed)";
  }
  return out;
}

}  // namespace rcsim::fault
