// Tests for the consistency-assertions extension (paper ref [21]).
#include <gtest/gtest.h>

#include "routing/bgp.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

ProtocolConfig withAssertions(bool on) {
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 2.25;
  cfg.bgp.mraiMaxSec = 3.0;
  cfg.bgp.consistencyAssertions = on;
  return cfg;
}

TEST(Assertions, SteadyStateUnchanged) {
  // With a converged network every advertised path is consistent, so the
  // assertion must not alter any routing decision.
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet plain{topo, ProtocolKind::Bgp, withAssertions(false)};
  TestNet strict{topo, ProtocolKind::Bgp, withAssertions(true)};
  plain.warmUp(120_sec);
  strict.warmUp(120_sec);
  for (NodeId n = 0; n < topo.nodeCount; ++n) {
    for (NodeId d = 0; d < topo.nodeCount; ++d) {
      EXPECT_EQ(plain.nextHop(n, d), strict.nextHop(n, d)) << n << "->" << d;
    }
  }
}

TEST(Assertions, ReconvergesAfterSingleFailure) {
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, withAssertions(true)};
  tn.warmUp(60_sec);
  ASSERT_EQ(tn.nextHop(0, 4), 1);
  tn.net().findLink(1, 4)->fail();
  tn.runUntil(120_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 2);
  EXPECT_EQ(tn.nextHop(1, 4), 0);
}

TEST(Assertions, PathContradictingNeighborsOwnViewIsSkipped) {
  // Ring of 4 (0-1-2-3-0). Node 0 hears from 1 the path [1, 2] for dst 2
  // and from 3 the path [3, 2]. Both 1 and... build a contradiction:
  // after 2-3 fails, 3's old path via 2 is gone; anything 0 still holds
  // from 1 claiming to cross 3 would be vetoed by 3's own view. End state
  // must be consistent and loop-free.
  TestNet tn{testutil::ringTopology(4), ProtocolKind::Bgp, withAssertions(true)};
  tn.warmUp(60_sec);
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(120_sec);
  EXPECT_EQ(tn.nextHop(3, 2), 0);  // the long way round
  EXPECT_EQ(tn.nextHop(0, 2), 1);
  auto& bgp3node = tn.protocolAs<Bgp>(3);
  EXPECT_EQ(bgp3node.bestPath(2), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Assertions, SpeedsUpDestinationWithdrawal) {
  // Disconnect node 4 in the two-path graph: every route to it must
  // disappear. Assertions prune the stale-cross-path exploration, so the
  // strict variant never takes *longer* and typically converges faster.
  auto tdownSeconds = [](bool assertions) {
    TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, withAssertions(assertions)};
    tn.warmUp(60_sec);
    tn.net().findLink(1, 4)->fail();
    tn.net().findLink(3, 4)->fail();
    Time last = Time::zero();
    tn.probe().routeChange = [&last, &tn](Time t, NodeId, NodeId, NodeId, NodeId) {
      last = t;
    };
    tn.runUntil(400_sec);
    for (NodeId n = 0; n <= 3; ++n) EXPECT_EQ(tn.nextHop(n, 4), kInvalidNode) << n;
    return (last - 60_sec).toSeconds();
  };
  const double plain = tdownSeconds(false);
  const double strict = tdownSeconds(true);
  EXPECT_LE(strict, plain + 1e-9);
}

TEST(Assertions, OffByDefault) {
  BgpConfig cfg;
  EXPECT_FALSE(cfg.consistencyAssertions);
}

}  // namespace
}  // namespace rcsim
