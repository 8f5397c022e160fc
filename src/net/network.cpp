#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

namespace rcsim {

Network::Network(Scheduler& sched, Rng rng) : sched_{sched}, rng_{rng} {}

NodeId Network::addNode() {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, rng_.fork()));
  return id;
}

Link& Network::addLink(NodeId a, NodeId b, const LinkConfig& cfg) {
  assert(findLink(a, b) == nullptr);
  links_.push_back(std::make_unique<Link>(*this, a, b, cfg));
  Link& l = *links_.back();
  node(a).attachLink(l);
  node(b).attachLink(l);
  return l;
}

Link* Network::findLink(NodeId a, NodeId b) const {
  for (const auto& l : links_) {
    if (l->connects(a, b)) return l.get();
  }
  return nullptr;
}

void Network::finalize(bool ecmp) {
  for (auto& n : nodes_) n->resizeFib(nodes_.size(), ecmp);
}

void Network::startProtocols() {
  for (auto& n : nodes_) {
    if (n->protocol() != nullptr) n->protocol()->start();
  }
}

std::vector<NodeId> Network::shortestPathLive(NodeId src, NodeId dst) const {
  const auto n = nodes_.size();
  std::vector<NodeId> prev(n, kInvalidNode);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> q;
  q.push(src);
  seen[static_cast<std::size_t>(src)] = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (u == dst) break;
    for (const NodeId v : node(u).neighbors()) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      const Link* l = node(u).linkTo(v);
      if (l == nullptr || !l->isUp()) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      prev[static_cast<std::size_t>(v)] = u;
      q.push(v);
    }
  }
  if (!seen[static_cast<std::size_t>(dst)]) return {};
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != kInvalidNode; cur = prev[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int Network::shortestDistLive(NodeId src, NodeId dst) const {
  const auto p = shortestPathLive(src, dst);
  return p.empty() ? -1 : static_cast<int>(p.size()) - 1;
}

std::vector<NodeId> Network::fibWalk(NodeId src, NodeId dst, bool* loop, bool* blackhole) const {
  if (loop) *loop = false;
  if (blackhole) *blackhole = false;
  std::vector<NodeId> path;
  std::vector<char> visited(nodes_.size(), 0);
  NodeId cur = src;
  while (true) {
    path.push_back(cur);
    if (cur == dst) return path;
    if (visited[static_cast<std::size_t>(cur)]) {
      if (loop) *loop = true;
      return path;
    }
    visited[static_cast<std::size_t>(cur)] = 1;
    // Canonical walk: primaries only, even under ECMP — the PathTracer
    // receiver column and the obs/replay shadow FIB (both rebuilt from
    // route changes, which carry primaries) must agree with this walk
    // (docs/routing-state.md).
    const NodeId nh = node(cur).fib().nextHop(dst);
    if (nh == kInvalidNode) {
      if (blackhole) *blackhole = true;
      return path;
    }
    cur = nh;
  }
}

}  // namespace rcsim
