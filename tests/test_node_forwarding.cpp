#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

/// Three nodes in a line: a - m - b, manual FIBs, no routing protocol.
struct ForwardingFixture : ::testing::Test {
  ForwardingFixture() : net{sched, Rng{3}} {
    a = net.addNode();
    m = net.addNode();
    b = net.addNode();
    net.addLink(a, m, cfg);
    net.addLink(m, b, cfg);
    net.finalize();
    net.node(a).setRoute(b, m);
    net.node(m).setRoute(b, b);
    net.node(m).setRoute(a, a);
    net.node(b).setRoute(a, m);

    probe.deliver = [this](Time t, NodeId n, const Packet& p) {
      delivered.push_back(p);
      deliveredAt.push_back(t);
      deliveredNode.push_back(n);
    };
    probe.drop = [this](Time, NodeId n, const Packet&, DropReason r) {
      drops.emplace_back(n, r);
    };
    probe.forward = [this](Time, NodeId n, const Packet&, NodeId nh) {
      forwards.emplace_back(n, nh);
    };
  }

  Packet makePacket(NodeId src, NodeId dst, int ttl = 64) {
    Packet p;
    p.id = net.nextPacketId();
    p.src = src;
    p.dst = dst;
    p.ttl = ttl;
    p.sizeBytes = 1000;
    p.kind = PacketKind::Data;
    p.sendTime = sched.now();
    p.trace = std::make_shared<std::vector<NodeId>>();
    return p;
  }

  Scheduler sched;
  LinkConfig cfg;
  Network net;
  testutil::NetworkProbe probe{net};
  NodeId a{}, m{}, b{};
  std::vector<Packet> delivered;
  std::vector<Time> deliveredAt;
  std::vector<NodeId> deliveredNode;
  std::vector<std::pair<NodeId, DropReason>> drops;
  std::vector<std::pair<NodeId, NodeId>> forwards;
};

TEST_F(ForwardingFixture, EndToEndDelivery) {
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(deliveredNode[0], b);
  ASSERT_EQ(forwards.size(), 2u);
  EXPECT_EQ(forwards[0], std::make_pair(a, m));
  EXPECT_EQ(forwards[1], std::make_pair(m, b));
}

TEST_F(ForwardingFixture, TraceRecordsVisitedNodes) {
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(*delivered[0].trace, (std::vector<NodeId>{a, m, b}));
}

TEST_F(ForwardingFixture, TtlDecrementedPerTransitHop) {
  net.node(a).originate(makePacket(a, b, 64));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  // Decremented at m only (origination and delivery don't decrement).
  EXPECT_EQ(delivered[0].ttl, 63);
}

TEST_F(ForwardingFixture, TtlExpiryDropsAtTransit) {
  net.node(a).originate(makePacket(a, b, 1));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(m, DropReason::TtlExpired));
}

TEST_F(ForwardingFixture, NoRouteDropsAtBlackholeNode) {
  net.node(m).setRoute(b, kInvalidNode);
  net.node(a).originate(makePacket(a, b));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(m, DropReason::NoRoute));
}

TEST_F(ForwardingFixture, NoRouteAtOriginDropsImmediately) {
  net.node(a).setRoute(b, kInvalidNode);
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(a, DropReason::NoRoute));
}

TEST_F(ForwardingFixture, DeliveryToSelf) {
  net.node(a).originate(makePacket(a, a));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(deliveredNode[0], a);
  EXPECT_TRUE(forwards.empty());
}

TEST_F(ForwardingFixture, TwoNodeForwardingLoopExpiresTtl) {
  // Misconfigure: a and m point at each other for dst b.
  net.node(m).setRoute(b, a);
  net.node(a).originate(makePacket(a, b, 10));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].second, DropReason::TtlExpired);
}

TEST_F(ForwardingFixture, RouteChangeHookFires) {
  std::vector<std::tuple<NodeId, NodeId, NodeId, NodeId>> changes;
  probe.routeChange = [&](Time, NodeId n, NodeId dst, NodeId oldNh, NodeId newNh) {
    changes.emplace_back(n, dst, oldNh, newNh);
  };
  net.node(a).setRoute(b, m);  // unchanged: no event
  EXPECT_TRUE(changes.empty());
  net.node(a).setRoute(b, kInvalidNode);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0], std::make_tuple(a, b, m, kInvalidNode));
}

TEST_F(ForwardingFixture, FibWalkReportsPathLoopAndBlackhole) {
  bool loop = false, blackhole = false;
  auto path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_EQ(path, (std::vector<NodeId>{a, m, b}));
  EXPECT_FALSE(loop);
  EXPECT_FALSE(blackhole);

  net.node(m).setRoute(b, kInvalidNode);
  path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_TRUE(blackhole);
  EXPECT_EQ(path, (std::vector<NodeId>{a, m}));

  net.node(m).setRoute(b, a);
  path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_TRUE(loop);
}

TEST_F(ForwardingFixture, ShortestPathLiveRespectsLinkState) {
  EXPECT_EQ(net.shortestDistLive(a, b), 2);
  net.findLink(m, b)->fail();
  EXPECT_EQ(net.shortestDistLive(a, b), -1);
  EXPECT_TRUE(net.shortestPathLive(a, b).empty());
}

TEST_F(ForwardingFixture, ControlPacketGoesToProtocolNotFib) {
  // A node with no protocol silently consumes control payloads.
  struct Dummy final : ControlPayload {
    std::uint32_t sizeBytes() const override { return 8; }
    std::string describe() const override { return "dummy"; }
  };
  net.node(a).sendControl(m, std::make_shared<Dummy>());
  sched.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(drops.empty());
}

}  // namespace
}  // namespace rcsim
