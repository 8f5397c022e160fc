#pragma once

// The live sender→receiver forwarding-path walker — the one implementation
// behind the paper's per-failure path forensics: the sequence of transient
// forwarding paths, whether each loops or black-holes, and the forwarding-
// path convergence delay (Figure 6a). StatsCollector feeds it from the
// network's route changes; ConvergenceAnalyzer feeds it from the RouteChange
// trace stream. obs/replay.cpp's dense N x N shadow FIB is the independent
// oracle both are checked against.
//
// It keeps only the receiver's FIB *column* (the walk reads nothing but
// fib[cur][dst]) and re-walks only when that column changed. A walk after
// an unrelated route change would reproduce the previous path, which the
// dedup discards anyway, so the recorded sequence equals a full walk of
// the real FIB after every route change. The single exception is the very
// first route change, which the dedup always records; it is walked
// unconditionally.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace rcsim::obs {

/// One distinct forwarding path, recorded when the path changed.
struct PathEvent {
  Time t{};
  std::vector<NodeId> path;
  bool loop = false;
  bool blackhole = false;

  friend bool operator==(const PathEvent&, const PathEvent&) = default;
};

class PathTracer {
 public:
  /// Throws std::invalid_argument unless src and dst are both in
  /// 0..nodeCount-1.
  PathTracer(NodeId src, NodeId dst, std::size_t nodeCount);

  /// Apply one route change (node's primary next hop toward dst is now
  /// newNh) and re-walk if it can have moved the path. Returns true iff a
  /// new path event was recorded. Throws std::runtime_error when node,
  /// dst or a valid newNh lies outside 0..nodeCount-1.
  bool onRouteChange(Time t, NodeId node, NodeId dst, NodeId newNh);

  [[nodiscard]] const std::vector<PathEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<NodeId>& currentPath() const;
  /// Walks done so far: one per receiver-column change, plus the first
  /// route change when it was off the column.
  [[nodiscard]] std::uint64_t walks() const { return epoch_; }

  /// Number of distinct transient paths observed at or after `watermark`.
  [[nodiscard]] int transientPathsAfter(Time watermark) const;
  /// Seconds from watermark to the last path change (0 if none).
  [[nodiscard]] double convergenceSecondsAfter(Time watermark) const;
  /// Did any observed path at/after watermark contain a loop?
  [[nodiscard]] bool sawLoopAfter(Time watermark) const;
  [[nodiscard]] bool sawBlackholeAfter(Time watermark) const;

 private:
  bool walk(Time t);

  NodeId src_;
  NodeId dst_;
  /// nextHopToDst_[n] is n's primary next hop toward dst_.
  std::vector<NodeId> nextHopToDst_;
  /// Epoch-stamped visited marks + reused path buffer, so a walk allocates
  /// nothing beyond the events it records.
  std::vector<std::uint64_t> visitedEpoch_;
  std::uint64_t epoch_ = 0;  ///< Bumped once per walk.
  std::vector<NodeId> walkBuf_;
  std::vector<PathEvent> events_;
};

}  // namespace rcsim::obs
