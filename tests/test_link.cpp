#include "net/link.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

struct LinkFixture : ::testing::Test {
  LinkFixture() : net{sched, Rng{1}} {
    a = net.addNode();
    b = net.addNode();
    cfg.bandwidthBps = 8e6;  // 1000 B packet -> 1 ms serialization
    cfg.propDelay = 1_ms;
    cfg.queueCapacity = 3;
    cfg.detectDelay = 50_ms;
    link = &net.addLink(a, b, cfg);
    net.finalize();

    probe.deliver = [this](Time t, NodeId node, const Packet& p) {
      deliveries.push_back({t, node, p.id});
    };
    probe.drop = [this](Time, NodeId, const Packet&, DropReason r) {
      drops.push_back(r);
    };
  }

  Packet makePacket(std::uint32_t bytes = 1000) {
    Packet p;
    p.id = net.nextPacketId();
    p.src = a;
    p.dst = b;
    p.ttl = 64;
    p.sizeBytes = bytes;
    p.kind = PacketKind::Data;
    p.sendTime = sched.now();
    return p;
  }

  struct Delivery {
    Time t;
    NodeId node;
    std::uint64_t id;
  };

  Scheduler sched;
  Network net;
  testutil::NetworkProbe probe{net};
  NodeId a{}, b{};
  LinkConfig cfg;
  Link* link = nullptr;
  std::vector<Delivery> deliveries;
  std::vector<DropReason> drops;
};

TEST_F(LinkFixture, DeliversAfterSerializationPlusPropagation) {
  link->send(a, makePacket());
  sched.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 1000 B at 8 Mb/s = 1 ms, plus 1 ms propagation.
  EXPECT_EQ(deliveries[0].t, 2_ms);
  EXPECT_EQ(deliveries[0].node, b);
}

TEST_F(LinkFixture, SerializesBackToBackPackets) {
  link->send(a, makePacket());
  link->send(a, makePacket());
  link->send(a, makePacket());
  sched.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].t, 2_ms);
  EXPECT_EQ(deliveries[1].t, 3_ms);  // queued behind the first transmission
  EXPECT_EQ(deliveries[2].t, 4_ms);
}

TEST_F(LinkFixture, DirectionsAreIndependent) {
  link->send(a, makePacket());
  Packet back = makePacket();
  back.src = b;
  back.dst = a;
  link->send(b, std::move(back));
  sched.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].t, 2_ms);  // no serialization contention across directions
  EXPECT_EQ(deliveries[1].t, 2_ms);
}

TEST_F(LinkFixture, DropTailQueueOverflow) {
  // Capacity 3: one packet in service + 3 queued fit; the 5th drops.
  for (int i = 0; i < 5; ++i) link->send(a, makePacket());
  sched.run();
  EXPECT_EQ(deliveries.size(), 4u);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], DropReason::QueueOverflow);
}

TEST_F(LinkFixture, SendOnDownLinkDrops) {
  link->fail();
  link->send(a, makePacket());
  sched.run();
  EXPECT_TRUE(deliveries.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], DropReason::LinkDown);
}

TEST_F(LinkFixture, FailureCutsInFlightPackets) {
  link->send(a, makePacket());
  sched.scheduleAt(Time::microseconds(1500), [this] { link->fail(); });  // mid-propagation
  sched.run();
  EXPECT_TRUE(deliveries.empty());
  ASSERT_GE(drops.size(), 1u);
  EXPECT_EQ(drops[0], DropReason::InFlightCut);
}

TEST_F(LinkFixture, FailureFlushesQueuedPackets) {
  for (int i = 0; i < 3; ++i) link->send(a, makePacket());
  sched.scheduleAt(Time::microseconds(100), [this] { link->fail(); });
  sched.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(drops.size(), 3u);  // 1 in service (cut) + 2 queued (flushed)
  for (const auto r : drops) EXPECT_EQ(r, DropReason::InFlightCut);
}

TEST_F(LinkFixture, RecoveryRestoresDelivery) {
  link->fail();
  sched.scheduleAt(1_sec, [this] { link->recover(); });
  sched.scheduleAt(2_sec, [this] { link->send(a, makePacket()); });
  sched.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].t, 2_sec + 2_ms);
}

TEST_F(LinkFixture, TransmitterRestartsAfterFailRecoverDuringService) {
  // Packet in service when the link fails; link recovers before the
  // serialization timer fires; fresh packets must still flow.
  link->send(a, makePacket());
  sched.scheduleAt(Time::microseconds(200), [this] { link->fail(); });
  sched.scheduleAt(Time::microseconds(400), [this] { link->recover(); });
  sched.scheduleAt(Time::microseconds(500), [this] { link->send(a, makePacket()); });
  sched.run();
  ASSERT_EQ(deliveries.size(), 1u);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], DropReason::InFlightCut);
}

TEST_F(LinkFixture, FailIsIdempotent) {
  link->fail();
  link->fail();
  EXPECT_FALSE(link->isUp());
  link->recover();
  link->recover();
  EXPECT_TRUE(link->isUp());
}

TEST_F(LinkFixture, PeerOfAndConnects) {
  EXPECT_EQ(link->peerOf(a), b);
  EXPECT_EQ(link->peerOf(b), a);
  EXPECT_TRUE(link->connects(a, b));
  EXPECT_TRUE(link->connects(b, a));
  EXPECT_FALSE(link->connects(a, a));
}

}  // namespace
}  // namespace rcsim
