#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace rcsim::fault {

/// One invariant violation, with enough context to debug it: simulation
/// time, the node involved, and the tail of the event trail leading up.
struct Violation {
  Time at = Time::zero();
  NodeId node = kInvalidNode;
  std::string invariant;  ///< Stable machine-readable name.
  std::string detail;     ///< Human-readable specifics.
  std::vector<std::string> trail;  ///< Last few network events before it.

  [[nodiscard]] std::string format() const;
};

/// Runtime invariant checker, attached as one of the Network's observers.
///
/// Checked continuously:
///   packet-conservation   delivered + dropped never exceeds originated
///                         (data plane; in-flight is the difference)
///   transmit-on-down-link a link accepted a packet while down
///   ttl-exhausted-forward a node forwarded a packet with TTL <= 0
///   fib-invalid-nexthop   a route points at self or a non-attached node
///
/// Checked by finalCheck():
///   the FIB scan above over every (node, dst) pair, plus a final
///   conservation recheck.
///
/// TTL-expiry drops are additionally attributed to the protocol running at
/// the dropping node (loopsByProtocol) — loops are legal transients, so
/// they are diagnostics, not violations.
class InvariantChecker final : public NetworkObserver {
 public:
  /// Attaches itself via Network::addObserver; the destructor detaches it.
  explicit InvariantChecker(Network& net);
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void onDrop(Time t, NodeId where, const Packet& p, DropReason r) override;
  void onDeliver(Time t, NodeId node, const Packet& p) override;
  void onForward(Time t, NodeId node, const Packet& p, NodeId nextHop) override;
  void onOriginate(Time t, NodeId node, const Packet& p) override;
  void onRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) override;
  void onLinkTransmit(Time t, NodeId from, NodeId to, bool linkUp) override;
  void onLinkStateChange(Time t, NodeId a, NodeId b, bool up) override;

  /// Full end-of-run sweep: every FIB entry plus conservation.
  void finalCheck(Time at);

  [[nodiscard]] bool clean() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& loopsByProtocol() const {
    return loopsByProtocol_;
  }

  /// All violations formatted into one report ("" when clean).
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] std::uint64_t originated() const { return originated_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  static constexpr std::size_t kTrailLength = 16;
  static constexpr std::size_t kMaxViolations = 64;  ///< One bug floods fast.

  void note(Time t, std::string what);
  void record(Time at, NodeId node, const char* invariant, std::string detail);
  void checkConservation(Time at);
  void checkFibEntry(Time at, NodeId node, NodeId dst, NodeId nh);

  Network& net_;
  std::deque<std::string> trail_;
  std::vector<Violation> violations_;
  std::map<std::string, std::uint64_t> loopsByProtocol_;
  std::uint64_t originated_ = 0;  ///< Data packets only.
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rcsim::fault
