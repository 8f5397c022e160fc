// Focused tests on the DV machinery shared by RIP and DBF: the RFC 2453
// triggered-update engine (first update immediate + batched, then damped),
// periodic cadence, and split-horizon poisoning on the wire.
#include <gtest/gtest.h>

#include "routing/messages.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

struct Capture {
  Time t;
  NodeId from;
  NodeId to;
  std::vector<DvEntry> entries;
};

class DvEngine : public ::testing::Test {
 protected:
  void install(TestNet& tn) {
    tn.probe().controlSend = [this](Time t, NodeId from, NodeId to,
                                    const ControlPayload& payload) {
      if (const auto* u = dynamic_cast<const DvUpdate*>(&payload)) {
        captured_.push_back(Capture{t, from, to, u->entries});
      }
    };
  }

  std::vector<Capture> captured_;
};

TEST_F(DvEngine, FailurePoisonRidesOneImmediateBatchedUpdate) {
  // Line 0-1-2-3-4; fail 3-4 and watch what node 3 sends to node 2: the
  // *first* post-detection update must carry the poisoned route(s) at once
  // (not one destination now and the rest a damping interval later).
  TestNet tn{testutil::lineTopology(5), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  install(tn);
  tn.net().findLink(3, 4)->fail();
  tn.runUntil(40_sec + 300_ms);  // detection at +50 ms; damping floor is 1 s
  bool sawPoison = false;
  for (const auto& c : captured_) {
    if (c.from != 3 || c.to != 2) continue;
    for (const auto& e : c.entries) {
      if (e.dst == 4 && e.metric == 16) sawPoison = true;
    }
  }
  EXPECT_TRUE(sawPoison);
}

TEST_F(DvEngine, TriggeredUpdatesAreDamped) {
  // After the first triggered update, follow-ups from the same node to the
  // same neighbor must be spaced by at least the damping floor (1 s),
  // except for the periodic announcement (which carries the full table and
  // is allowed any time).
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  install(tn);
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(80_sec);
  // Collect node 1 -> node 0 update timestamps carrying a *change* for 3.
  std::vector<Time> times;
  for (const auto& c : captured_) {
    if (c.from == 1 && c.to == 0) times.push_back(c.t);
  }
  ASSERT_GE(times.size(), 1u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = (times[i] - times[i - 1]).toSeconds();
    EXPECT_GE(gap, 0.99) << "updates " << i - 1 << " and " << i;
  }
}

TEST_F(DvEngine, PeriodicFullTableCadence) {
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip};
  tn.warmUp(10_sec);
  install(tn);
  tn.runUntil(190_sec);  // 180 s of steady state
  // Full-table announcements from 1 to 0: one initial phase + every ~30 s.
  int fullTables = 0;
  for (const auto& c : captured_) {
    if (c.from == 1 && c.to == 0 && c.entries.size() == 3) ++fullTables;
  }
  EXPECT_GE(fullTables, 4);
  EXPECT_LE(fullTables, 8);
}

TEST_F(DvEngine, PoisonReverseOnTheWire) {
  // Poison applies when the update's receiver equals the route's next hop:
  // node 1 reaches dst 2 via 2 itself, so updates 1->2 must carry dst 2 at
  // metric 16, while updates 1->0 advertise the honest metric 1.
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip};
  tn.warmUp(40_sec);
  install(tn);
  tn.runUntil(80_sec);
  bool poisonedTowardNextHop = false;
  bool honestAwayFromNextHop = false;
  for (const auto& c : captured_) {
    for (const auto& e : c.entries) {
      if (e.dst != 2) continue;
      if (c.from == 1 && c.to == 2 && e.metric == 16) poisonedTowardNextHop = true;
      if (c.from == 1 && c.to == 0 && e.metric == 1) honestAwayFromNextHop = true;
    }
  }
  EXPECT_TRUE(poisonedTowardNextHop);
  EXPECT_TRUE(honestAwayFromNextHop);
}

TEST_F(DvEngine, NoPoisonReverseModeAdvertisesHonestly) {
  ProtocolConfig cfg;
  cfg.dv.splitHorizon = SplitHorizonMode::None;
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip, cfg};
  tn.warmUp(40_sec);
  install(tn);
  tn.runUntil(80_sec);
  bool sawHonestTowardNextHop = false;
  for (const auto& c : captured_) {
    for (const auto& e : c.entries) {
      if (e.dst == 2 && c.from == 1 && c.to == 2 && e.metric == 1) sawHonestTowardNextHop = true;
    }
  }
  EXPECT_TRUE(sawHonestTowardNextHop);
}

TEST_F(DvEngine, LargeInfinityMetricSurvivesTheWire) {
  // Regression: DvEntry::metric used to be uint8_t, so an infinity of 300
  // truncated to 44 on the wire — an unreachable destination advertised as
  // a *great* route, resurrecting dead paths. The full metric must arrive
  // intact and the route must actually die.
  ProtocolConfig cfg;
  cfg.dv.infinityMetric = 300;
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Rip, cfg};
  tn.warmUp(40_sec);
  install(tn);
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(50_sec);
  bool sawFullInfinity = false;
  for (const auto& c : captured_) {
    if (c.from != 1 || c.to != 0) continue;
    for (const auto& e : c.entries) {
      EXPECT_NE(e.metric, 44) << "metric truncated to 8 bits on the wire";
      if (e.dst == 2 && e.metric == 300) sawFullInfinity = true;
    }
  }
  EXPECT_TRUE(sawFullInfinity);
  EXPECT_EQ(tn.nextHop(0, 2), kInvalidNode);
}

TEST_F(DvEngine, ZeroDampingPropagatesChangesBackToBack) {
  ProtocolConfig cfg;
  cfg.dv.triggerDampMinSec = 0.0;
  cfg.dv.triggerDampMaxSec = 0.0;
  TestNet tn{testutil::ringTopology(8), ProtocolKind::Dbf, cfg};
  tn.warmUp(40_sec);
  tn.net().findLink(0, 7)->fail();
  // Without damping the whole counting-to-next-best settles in link-time.
  tn.runUntil(41_sec);
  EXPECT_EQ(tn.nextHop(0, 7), 1);
}

}  // namespace
}  // namespace rcsim
