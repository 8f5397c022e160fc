#include "obs/path_tracer.hpp"

#include <stdexcept>

namespace rcsim::obs {

PathTracer::PathTracer(NodeId src, NodeId dst, std::size_t nodeCount) : src_{src}, dst_{dst} {
  // Negative ids wrap far past any node count.
  if (static_cast<std::size_t>(src) >= nodeCount || static_cast<std::size_t>(dst) >= nodeCount) {
    throw std::invalid_argument("path tracer: src/dst outside 0..N-1");
  }
  nextHopToDst_.assign(nodeCount, kInvalidNode);
  visitedEpoch_.assign(nodeCount, 0);
}

bool PathTracer::onRouteChange(Time t, NodeId node, NodeId dst, NodeId newNh) {
  const auto n = nextHopToDst_.size();
  if (static_cast<std::size_t>(node) >= n || static_cast<std::size_t>(dst) >= n ||
      (newNh != kInvalidNode && static_cast<std::size_t>(newNh) >= n)) {
    // Same text as replayTrace: a trace whose route events do not fit the
    // declared node count is corrupt.
    throw std::runtime_error("trace replay: RouteChange references a node outside 0..N-1");
  }
  if (dst == dst_) {
    nextHopToDst_[static_cast<std::size_t>(node)] = newNh;
    return walk(t);
  }
  // Off-column changes cannot alter the walked path; only the very first
  // change of the stream is walked, because the dedup always records it.
  return events_.empty() && walk(t);
}

bool PathTracer::walk(Time t) {
  // Network::fibWalk's algorithm, over the receiver column.
  ++epoch_;
  walkBuf_.clear();
  bool loop = false;
  bool blackhole = false;
  NodeId cur = src_;
  while (true) {
    walkBuf_.push_back(cur);
    if (cur == dst_) break;
    if (visitedEpoch_[static_cast<std::size_t>(cur)] == epoch_) {
      loop = true;
      break;
    }
    visitedEpoch_[static_cast<std::size_t>(cur)] = epoch_;
    const NodeId nh = nextHopToDst_[static_cast<std::size_t>(cur)];
    if (nh == kInvalidNode) {
      blackhole = true;
      break;
    }
    cur = nh;
  }
  // Record only a *changed* path.
  if (!events_.empty() && events_.back().path == walkBuf_) return false;
  events_.push_back(PathEvent{t, walkBuf_, loop, blackhole});
  return true;
}

const std::vector<NodeId>& PathTracer::currentPath() const {
  static const std::vector<NodeId> kEmpty{};
  return events_.empty() ? kEmpty : events_.back().path;
}

int PathTracer::transientPathsAfter(Time watermark) const {
  int count = 0;
  for (const auto& e : events_) {
    if (e.t >= watermark) ++count;
  }
  return count;
}

double PathTracer::convergenceSecondsAfter(Time watermark) const {
  Time last = watermark;
  for (const auto& e : events_) {
    if (e.t >= watermark && e.t > last) last = e.t;
  }
  return (last - watermark).toSeconds();
}

bool PathTracer::sawLoopAfter(Time watermark) const {
  for (const auto& e : events_) {
    if (e.t >= watermark && e.loop) return true;
  }
  return false;
}

bool PathTracer::sawBlackholeAfter(Time watermark) const {
  for (const auto& e : events_) {
    if (e.t >= watermark && e.blackhole) return true;
  }
  return false;
}

}  // namespace rcsim::obs
