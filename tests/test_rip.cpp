#include "routing/rip.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

TEST(Rip, ConvergesOnLine) {
  TestNet tn{testutil::lineTopology(5), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  // Every node routes toward 4 through its right-hand neighbor.
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  EXPECT_EQ(tn.nextHop(1, 4), 2);
  EXPECT_EQ(tn.nextHop(3, 4), 4);
  EXPECT_EQ(tn.nextHop(4, 0), 3);
  auto& rip0 = tn.protocolAs<Rip>(0);
  EXPECT_EQ(rip0.metricFor(4), 4);
  EXPECT_EQ(rip0.metricFor(1), 1);
  EXPECT_EQ(rip0.metricFor(0), 0);
}

TEST(Rip, ConvergesToShortestPathsOnMesh) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, ProtocolKind::Rip};
  tn.warmUp(60_sec);
  auto& rip = tn.protocolAs<Rip>(gridId(0, 0, 5));
  EXPECT_EQ(rip.metricFor(gridId(4, 4, 5)), 8);
  EXPECT_EQ(rip.metricFor(gridId(2, 2, 5)), 4);
}

TEST(Rip, KeepsNoAlternatePath) {
  // 0-1-4 primary, 0-2-3-4 backup. After 1-4 fails, node 1 has no route to
  // 4 until another neighbor's update arrives (paper §4.1).
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  tn.net().findLink(1, 4)->fail();
  tn.runUntil(40_sec + 200_ms);  // detection + poison wave done, no periodic yet
  EXPECT_EQ(tn.nextHop(1, 4), kInvalidNode);
  EXPECT_EQ(tn.protocolAs<Rip>(1).metricFor(4), 16);
  // Eventually the periodic update from node 0 restores reachability.
  tn.runUntil(40_sec + 40_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 2);
  EXPECT_EQ(tn.nextHop(1, 4), 0);
  EXPECT_EQ(tn.protocolAs<Rip>(0).metricFor(4), 3);
}

TEST(Rip, PoisonReversePreventsTwoHopLoop) {
  // Line 0-1-2. 2 is unreachable after 1-2 fails; 0 must never offer 1 a
  // route to 2 (0's route goes through 1 and is poisoned).
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(140_sec);
  EXPECT_EQ(tn.nextHop(1, 2), kInvalidNode);
  EXPECT_EQ(tn.nextHop(0, 2), kInvalidNode);
  EXPECT_EQ(tn.protocolAs<Rip>(0).metricFor(2), 16);
}

TEST(Rip, CountsToInfinityIsBounded) {
  // Ring of 6: failing one link leaves a valid long way around; metrics
  // settle to real distances rather than counting forever.
  TestNet tn{testutil::ringTopology(6), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  tn.net().findLink(0, 5)->fail();
  tn.runUntil(150_sec);
  EXPECT_EQ(tn.protocolAs<Rip>(0).metricFor(5), 5);
  EXPECT_EQ(tn.nextHop(0, 5), 1);
}

TEST(Rip, UnreachableBeyondInfinityHops) {
  // A 20-node line: RIP's infinity of 16 makes the far end unreachable.
  TestNet tn{testutil::lineTopology(20), ProtocolKind::Rip};
  tn.warmUp(120_sec);
  auto& rip0 = tn.protocolAs<Rip>(0);
  EXPECT_EQ(rip0.metricFor(10), 10);
  EXPECT_EQ(rip0.metricFor(19), 16);
  EXPECT_EQ(tn.nextHop(0, 19), kInvalidNode);
  EXPECT_EQ(tn.nextHop(0, 10), 1);
}

TEST(Rip, LargerInfinityExtendsReach) {
  // Ablation A5's mechanism at unit scale: infinity=32 makes the same
  // 20-node line fully reachable end to end.
  DvConfig dv;
  dv.infinityMetric = 32;
  ProtocolConfig cfg;
  cfg.dv = dv;
  TestNet tn{testutil::lineTopology(20), ProtocolKind::Rip, cfg};
  tn.warmUp(120_sec);
  auto& rip0 = tn.protocolAs<Rip>(0);
  EXPECT_EQ(rip0.metricFor(19), 19);
  EXPECT_EQ(tn.nextHop(0, 19), 1);
}

TEST(Rip, TriggeredUpdatePropagatesFailureFast) {
  // After detection, poison should reach the whole 5-node line within a
  // couple of hops' transmission time — far sooner than any periodic cycle.
  TestNet tn{testutil::lineTopology(5), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  tn.net().findLink(3, 4)->fail();
  tn.runUntil(40_sec + 500_ms);
  for (NodeId n = 0; n <= 3; ++n) {
    EXPECT_EQ(tn.nextHop(n, 4), kInvalidNode) << "node " << n;
  }
}

TEST(Rip, CutVertexFailureMakesDownstreamUnreachableForGood) {
  // Line 0-1-2: the 0-1 link is a cut edge, so after it fails node 0 must
  // end with *stable* unreachability for both 1 and 2 (no flapping back).
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  ASSERT_EQ(tn.nextHop(0, 2), 1);
  tn.net().findLink(0, 1)->fail();
  tn.runUntil(150_sec);
  EXPECT_EQ(tn.nextHop(0, 2), kInvalidNode);
  EXPECT_EQ(tn.nextHop(0, 1), kInvalidNode);
  EXPECT_EQ(tn.nextHop(2, 0), kInvalidNode);
}

TEST(Rip, MessageRespectsEntryCap) {
  DvConfig dv;
  dv.maxEntriesPerMessage = 5;
  ProtocolConfig cfg;
  cfg.dv = dv;
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, ProtocolKind::Rip, cfg};
  std::size_t maxEntries = 0;
  std::uint64_t messages = 0;
  tn.probe().controlSend = [&](Time, NodeId, NodeId, const ControlPayload& payload) {
    if (const auto* u = dynamic_cast<const DvUpdate*>(&payload)) {
      maxEntries = std::max(maxEntries, u->entries.size());
      ++messages;
    }
  };
  tn.warmUp(40_sec);
  EXPECT_GT(messages, 0u);
  EXPECT_LE(maxEntries, 5u);
  // Convergence still correct with the small cap:
  EXPECT_EQ(tn.protocolAs<Rip>(gridId(0, 0, 5)).metricFor(gridId(4, 4, 5)), 8);
}

}  // namespace
}  // namespace rcsim
