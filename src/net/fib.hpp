#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace rcsim {

/// Deterministic per-flow key for spreading traffic across equal-cost next
/// hops: a splitmix64 finalizer over (src, dst). Every packet of a flow maps
/// to the same key, so a flow sticks to one path for as long as the entry
/// set is stable (no intra-flow reordering from ECMP itself).
[[nodiscard]] constexpr std::uint64_t fibFlowKey(NodeId src, NodeId dst) {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                    static_cast<std::uint32_t>(dst);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Forwarding Information Base: destination node -> a small set of next-hop
/// neighbors. Stored as flat vectors indexed by destination for O(1) lookups
/// in the data-forwarding hot path.
///
/// Entry 0 is the *primary* next hop — the protocol's deterministic single
/// best choice, identical to what the FIB held before multi-next-hop
/// entries existed. Alternates (up to kMaxNextHops-1 of them) only exist
/// when ECMP is enabled at resize() time; with it off the alternate arrays
/// are never allocated and the FIB costs exactly one NodeId per destination.
///
/// Canonical walks (Network::fibWalk, and the PathTracer column and
/// obs/replay shadow FIB rebuilt from route changes) follow primaries only;
/// the data plane spreads flows over the full entry set via fibFlowKey
/// (see docs/routing-state.md).
class Fib {
 public:
  /// Small-N cap on next hops per destination (1 primary + 3 alternates).
  static constexpr int kMaxNextHops = 4;

  void resize(std::size_t nodeCount, bool ecmp = false) {
    nextHop_.assign(nodeCount, kInvalidNode);
    ecmp_ = ecmp;
    if (ecmp) {
      alt_.assign(nodeCount * (kMaxNextHops - 1), kInvalidNode);
      altCount_.assign(nodeCount, 0);
    } else {
      alt_.clear();
      alt_.shrink_to_fit();
      altCount_.clear();
      altCount_.shrink_to_fit();
    }
  }

  [[nodiscard]] bool ecmpEnabled() const { return ecmp_; }

  /// The primary next hop (kInvalidNode when absent / out of range).
  [[nodiscard]] NodeId nextHop(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    return i < nextHop_.size() ? nextHop_[i] : kInvalidNode;
  }

  /// Copy the full entry set (primary first) into `out`; returns the count
  /// (0 when no route). `out` must hold kMaxNextHops entries.
  [[nodiscard]] int nextHops(NodeId dst, NodeId* out) const {
    const auto i = static_cast<std::size_t>(dst);
    if (i >= nextHop_.size() || nextHop_[i] == kInvalidNode) return 0;
    out[0] = nextHop_[i];
    int n = 1;
    if (ecmp_) {
      const int alts = altCount_[i];
      for (int k = 0; k < alts; ++k) out[n++] = alt_[i * (kMaxNextHops - 1) + static_cast<std::size_t>(k)];
    }
    return n;
  }

  /// Replace the entry for dst with the single next hop `nh` (kInvalidNode
  /// removes it), dropping any alternates. Returns the previous primary.
  /// Throws on out-of-range dst — the protocols only install routes for
  /// finalized node ids, so anything else is a bug, not a request.
  NodeId set(NodeId dst, NodeId nh) {
    const auto i = checkedIndex(dst);
    const NodeId old = nextHop_[i];
    nextHop_[i] = nh;
    if (ecmp_) altCount_[i] = 0;
    return old;
  }

  /// Replace the entry set for dst (`nhs[0]` becomes the primary; count 0
  /// removes the route). Alternates beyond kMaxNextHops are dropped; with
  /// ECMP disabled only the primary is kept. Returns the previous primary.
  NodeId setMulti(NodeId dst, const NodeId* nhs, int count) {
    const auto i = checkedIndex(dst);
    const NodeId old = nextHop_[i];
    nextHop_[i] = count > 0 ? nhs[0] : kInvalidNode;
    if (ecmp_) {
      const int alts = std::min(count - 1, kMaxNextHops - 1);
      altCount_[i] = static_cast<std::uint8_t>(alts < 0 ? 0 : alts);
      for (int k = 0; k < altCount_[i]; ++k) {
        alt_[i * (kMaxNextHops - 1) + static_cast<std::size_t>(k)] = nhs[k + 1];
      }
    }
    return old;
  }

  /// Data-plane choice: spread `flowKey` over the entry set. Falls back to
  /// the primary when there are no alternates; kInvalidNode when no route.
  [[nodiscard]] NodeId pick(NodeId dst, std::uint64_t flowKey) const {
    const auto i = static_cast<std::size_t>(dst);
    if (i >= nextHop_.size()) return kInvalidNode;
    const NodeId primary = nextHop_[i];
    if (!ecmp_ || primary == kInvalidNode) return primary;
    const int n = 1 + altCount_[i];
    if (n == 1) return primary;
    const auto idx = static_cast<int>(flowKey % static_cast<std::uint64_t>(n));
    if (idx == 0) return primary;
    return alt_[i * (kMaxNextHops - 1) + static_cast<std::size_t>(idx - 1)];
  }

  [[nodiscard]] std::size_t size() const { return nextHop_.size(); }

 private:
  [[nodiscard]] std::size_t checkedIndex(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    if (i >= nextHop_.size()) {
      throw std::out_of_range("Fib::set: dst " + std::to_string(dst) + " outside [0, " +
                              std::to_string(nextHop_.size()) + ")");
    }
    return i;
  }

  std::vector<NodeId> nextHop_;        ///< primary per destination
  std::vector<NodeId> alt_;            ///< (kMaxNextHops-1) slots per destination, ECMP only
  std::vector<std::uint8_t> altCount_; ///< live alternates per destination, ECMP only
  bool ecmp_ = false;
};

}  // namespace rcsim
