#include "stats/collector.hpp"

#include <gtest/gtest.h>

#include "fault/invariants.hpp"
#include "net/network.hpp"
#include "obs/path_tracer.hpp"
#include "stats/route_log.hpp"
#include "stats/timeseries.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

TEST(TimeSeries, BucketsBySecond) {
  TimeSeries ts;
  ts.recordDelivery(Time::milliseconds(500), 0.01);
  ts.recordDelivery(Time::milliseconds(900), 0.03);
  ts.recordDelivery(Time::milliseconds(1100), 0.05);
  EXPECT_EQ(ts.throughputAt(0), 2.0);
  EXPECT_EQ(ts.throughputAt(1), 1.0);
  EXPECT_EQ(ts.throughputAt(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.meanDelayAt(0), 0.02);
  EXPECT_DOUBLE_EQ(ts.meanDelayAt(1), 0.05);
}

TEST(TimeSeries, OutOfRangeBucketsAreEmpty) {
  TimeSeries ts;
  EXPECT_EQ(ts.throughputAt(-1), 0.0);
  EXPECT_EQ(ts.throughputAt(1000), 0.0);
  EXPECT_EQ(ts.meanDelayAt(5), 0.0);
}

TEST(RouteChangeLog, ConvergenceSecondsFromWatermark) {
  RouteChangeLog log;
  log.setWatermark(10_sec);
  log.record(5_sec);  // pre-failure
  log.record(12_sec);  // post-failure
  log.record(Time::seconds(13.5));
  EXPECT_DOUBLE_EQ(log.convergenceSeconds(), 3.5);
  EXPECT_EQ(log.changesAfterWatermark(), 2u);
  EXPECT_EQ(log.totalChanges(), 3u);
}

TEST(RouteChangeLog, NoChangeAfterWatermarkIsZero) {
  RouteChangeLog log;
  log.setWatermark(10_sec);
  log.record(5_sec);
  EXPECT_DOUBLE_EQ(log.convergenceSeconds(), 0.0);
}

struct TracerFixture : ::testing::Test {
  TracerFixture() : net{sched, Rng{1}} {
    for (int i = 0; i < 4; ++i) net.addNode();  // 0-1-2-3 line
    net.addLink(0, 1, cfg);
    net.addLink(1, 2, cfg);
    net.addLink(2, 3, cfg);
    net.finalize();
  }
  Scheduler sched;
  LinkConfig cfg;
  Network net;
};

TEST_F(TracerFixture, RecordsDistinctPathsOnly) {
  obs::PathTracer tracer{0, 3, net.nodeCount()};
  EXPECT_TRUE(tracer.onRouteChange(1_sec, 0, 3, 1));   // first change: always walked
  EXPECT_TRUE(tracer.onRouteChange(1_sec, 1, 3, 2));
  EXPECT_TRUE(tracer.onRouteChange(1_sec, 2, 3, 3));
  EXPECT_FALSE(tracer.onRouteChange(2_sec, 0, 2, 1));  // off the receiver column
  EXPECT_FALSE(tracer.onRouteChange(2_sec, 3, 3, 2));  // not on the path: unchanged
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[2].path, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_FALSE(tracer.events()[2].loop);
  EXPECT_TRUE(tracer.events()[0].blackhole);

  EXPECT_TRUE(tracer.onRouteChange(3_sec, 1, 3, kInvalidNode));
  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_TRUE(tracer.events()[3].blackhole);
  EXPECT_EQ(tracer.currentPath(), (std::vector<NodeId>{0, 1}));
  EXPECT_DOUBLE_EQ(tracer.convergenceSecondsAfter(Time::zero()), 3.0);
  EXPECT_EQ(tracer.transientPathsAfter(Time::seconds(2.5)), 1);
  EXPECT_TRUE(tracer.sawBlackholeAfter(Time::zero()));
  EXPECT_FALSE(tracer.sawLoopAfter(Time::zero()));
}

TEST_F(TracerFixture, DetectsLoops) {
  obs::PathTracer tracer{0, 3, net.nodeCount()};
  tracer.onRouteChange(1_sec, 0, 3, 1);
  tracer.onRouteChange(1_sec, 1, 3, 0);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_TRUE(tracer.events()[1].loop);
  EXPECT_EQ(tracer.events()[1].path, (std::vector<NodeId>{0, 1, 0}));
  EXPECT_TRUE(tracer.sawLoopAfter(Time::zero()));
  EXPECT_THROW(tracer.onRouteChange(2_sec, 4, 3, 0), std::runtime_error);
}

TEST_F(TracerFixture, FirstChangeOffTheColumnIsWalked) {
  // The very first route change records the (black-holed) path even when
  // it is for another destination, exactly like a full walk would.
  obs::PathTracer tracer{0, 3, net.nodeCount()};
  EXPECT_TRUE(tracer.onRouteChange(1_sec, 2, 1, 1));
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].path, (std::vector<NodeId>{0}));
  EXPECT_TRUE(tracer.events()[0].blackhole);
  EXPECT_FALSE(tracer.onRouteChange(2_sec, 2, 1, 3));
  EXPECT_THROW((obs::PathTracer{0, 4, net.nodeCount()}), std::invalid_argument);
}

TEST_F(TracerFixture, WalksCountColumnChangesPlusTheFirstWalk) {
  obs::PathTracer tracer{0, 3, net.nodeCount()};
  EXPECT_EQ(tracer.walks(), 0u);
  tracer.onRouteChange(1_sec, 2, 1, 1);  // first change, off the column: walked
  std::uint64_t columnChanges = 0;
  const struct {
    NodeId node, dst, nh;
  } changes[] = {{0, 3, 1}, {1, 2, 2}, {1, 3, 2}, {0, 1, 1}, {2, 3, 3}, {3, 3, 2}, {2, 0, 1}};
  for (const auto& c : changes) {
    tracer.onRouteChange(2_sec, c.node, c.dst, c.nh);
    if (c.dst == 3) ++columnChanges;
  }
  EXPECT_EQ(columnChanges, 4u);
  EXPECT_EQ(tracer.walks(), columnChanges + 1);

  // A first change on the column is itself a column change: no extra walk.
  obs::PathTracer onColumn{0, 3, net.nodeCount()};
  onColumn.onRouteChange(1_sec, 0, 3, 1);
  onColumn.onRouteChange(1_sec, 1, 2, 2);
  EXPECT_EQ(onColumn.walks(), 1u);
}

TEST_F(TracerFixture, CollectorWiresEverythingTogether) {
  StatsCollector stats{net, StatsCollector::Config{0, 3}};
  stats.setFailureWatermark(10_sec);

  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);

  // A delivered data packet.
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.ttl = 64;
  p.sizeBytes = 1000;
  p.kind = PacketKind::Data;
  p.sendTime = Time::zero();
  p.trace = std::make_shared<std::vector<NodeId>>();
  net.node(0).originate(std::move(p));
  sched.run();

  EXPECT_EQ(stats.data().delivered, 1u);
  EXPECT_EQ(stats.data().forwarded, 3u);
  EXPECT_EQ(stats.loopEscapedDeliveries(), 0u);
  EXPECT_EQ(stats.routeLog().totalChanges(), 3u);
  ASSERT_NE(stats.tracer(), nullptr);
  EXPECT_EQ(stats.tracer()->currentPath(), net.fibWalk(0, 3));
  // Delivered in bucket 0 with ~hops*(tx+prop) delay.
  EXPECT_EQ(stats.series().throughputAt(0), 1.0);
  EXPECT_GT(stats.series().meanDelayAt(0), 0.0);
}

TEST_F(TracerFixture, CollectorSeparatesDataFromControl) {
  StatsCollector stats{net, StatsCollector::Config{0, 3}};
  struct Dummy final : ControlPayload {
    std::uint32_t sizeBytes() const override { return 8; }
    std::string describe() const override { return "dummy"; }
  };
  // Control toward a down link: counted as a control drop, not data.
  net.findLink(0, 1)->fail();
  net.node(0).sendControl(1, std::make_shared<Dummy>());
  sched.run();
  EXPECT_EQ(stats.control().dropLinkDown, 1u);
  EXPECT_EQ(stats.data().totalDropped(), 0u);
}

TEST_F(TracerFixture, WatermarkSplitsDropCounters) {
  StatsCollector stats{net, StatsCollector::Config{0, 3}};
  stats.setFailureWatermark(5_sec);
  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);

  auto emit = [&](Time at) {
    sched.scheduleAt(at, [&] {
      Packet p;
      p.id = net.nextPacketId();
      p.src = 0;
      p.dst = 3;
      p.ttl = 1;  // dies at node 1
      p.sizeBytes = 100;
      p.kind = PacketKind::Data;
      p.sendTime = sched.now();
      net.node(0).originate(std::move(p));
    });
  };
  emit(1_sec);
  emit(6_sec);
  sched.run();
  EXPECT_EQ(stats.data().dropTtl, 2u);
  EXPECT_EQ(stats.dataAfterWatermark().dropTtl, 1u);
}

// The network's observer list: every attached observer sees every event,
// and each one detaches itself without disturbing the others.
using StatsObservers = TracerFixture;

Packet dataPacket(Network& net, int ttl) {
  Packet p;
  p.id = net.nextPacketId();
  p.src = 0;
  p.dst = 3;
  p.ttl = ttl;
  p.sizeBytes = 100;
  p.kind = PacketKind::Data;
  return p;
}

TEST_F(StatsObservers, CollectorAndInvariantCheckerBothSeeEveryEvent) {
  StatsCollector stats{net, StatsCollector::Config{0, 3}};
  fault::InvariantChecker checker{net};
  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);
  net.node(0).originate(dataPacket(net, 64));  // delivered
  net.node(0).originate(dataPacket(net, 1));   // TTL dies at node 1
  sched.run();
  EXPECT_EQ(stats.routeLog().totalChanges(), 3u);
  EXPECT_EQ(stats.data().delivered, 1u);
  EXPECT_EQ(stats.data().dropTtl, 1u);
  EXPECT_EQ(checker.originated(), 2u);
  EXPECT_EQ(checker.delivered(), 1u);
  EXPECT_EQ(checker.dropped(), 1u);
  checker.finalCheck(sched.now());
  EXPECT_TRUE(checker.clean()) << checker.summary();
}

TEST_F(StatsObservers, DestroyingOneLeavesTheOtherAttached) {
  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);
  {
    StatsCollector stats{net, StatsCollector::Config{0, 3}};
    {
      fault::InvariantChecker checker{net};
    }
    net.node(0).originate(dataPacket(net, 64));
    sched.run();
    EXPECT_EQ(stats.data().delivered, 1u);
    EXPECT_EQ(stats.data().forwarded, 3u);
  }
  fault::InvariantChecker checker{net};
  {
    StatsCollector stats{net, StatsCollector::Config{0, 3}};
  }
  net.node(0).originate(dataPacket(net, 64));
  sched.run();
  EXPECT_EQ(checker.originated(), 1u);
  EXPECT_EQ(checker.delivered(), 1u);
}

}  // namespace
}  // namespace rcsim
