#include "traffic/cbr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

/// The emission schedule as a loop over the whole window: start, then the
/// period accumulated in Time, up to but excluding stop.
std::vector<Time> windowLoop(double pps, Time start, Time stop) {
  std::vector<Time> times;
  for (Time t = start; t < stop; t += Time::seconds(1.0 / pps)) times.push_back(t);
  return times;
}

/// Call `fn` every `period` until `end`.
void sampleEvery(Scheduler& s, Time period, Time end, const std::function<void()>& fn) {
  s.scheduleAfter(period, [&s, period, end, &fn] {
    fn();
    if (s.now() < end) sampleEvery(s, period, end, fn);
  });
}

struct CbrRun {
  std::vector<Time> originated;
  std::uint64_t packetsSent = 0;
  std::uint64_t maxPendingTraffic = 0;
};

/// One source 0 -> 1 over a single DBF link, observed at every origination
/// and on a 1 ms sampling timer.
CbrRun runCbr(double pps, Time start, Time stop) {
  TestNet tn{testutil::lineTopology(2), ProtocolKind::Dbf};
  CbrSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.packetsPerSecond = pps;
  cfg.start = start;
  cfg.stop = stop;
  CbrSource cbr{tn.net(), cfg};

  CbrRun r;
  const Scheduler::KindStats& traffic = tn.scheduler().kindStats(EventKind::Traffic);
  // Traffic events are never cancelled, so these are exactly the pending ones.
  const std::function<void()> sample = [&] {
    r.maxPendingTraffic = std::max(r.maxPendingTraffic, traffic.scheduled - traffic.executed);
  };
  tn.probe().originate = [&](Time t, NodeId, const Packet&) {
    r.originated.push_back(t);
    sample();
  };
  const Time end = stop + 1_sec;
  sampleEvery(tn.scheduler(), Time::milliseconds(1), end, sample);
  tn.net().startProtocols();
  cbr.install();
  sample();
  tn.runUntil(end);
  r.packetsSent = cbr.packetsSent();
  return r;
}

TEST(Cbr, EmissionsMatchTheWindowLoop) {
  // 50 ms divides the window: 40 emissions, none at the exclusive stop.
  const CbrRun even = runCbr(20.0, 1_sec, 3_sec);
  EXPECT_EQ(even.originated, windowLoop(20.0, 1_sec, 3_sec));
  ASSERT_EQ(even.originated.size(), 40u);
  EXPECT_EQ(even.originated.back(), Time::seconds(2.95));
  EXPECT_EQ(even.packetsSent, 40u);

  // 1/3 s rounds to 333,333,333 ns, so the fourth emission lands 1 ns
  // before stop and is still sent.
  const CbrRun uneven = runCbr(3.0, 1_sec, 2_sec);
  EXPECT_EQ(uneven.originated, windowLoop(3.0, 1_sec, 2_sec));
  ASSERT_EQ(uneven.originated.size(), 4u);
  EXPECT_EQ(uneven.originated.back(), Time::nanoseconds(1'999'999'999));
  EXPECT_EQ(uneven.packetsSent, 4u);

  const CbrRun odd = runCbr(7.0, Time::seconds(0.5), Time::seconds(2.5));
  EXPECT_EQ(odd.originated, windowLoop(7.0, Time::seconds(0.5), Time::seconds(2.5)));
  EXPECT_EQ(odd.packetsSent, odd.originated.size());

  // An empty window schedules nothing.
  const CbrRun empty = runCbr(20.0, 2_sec, 2_sec);
  EXPECT_TRUE(empty.originated.empty());
  EXPECT_EQ(empty.maxPendingTraffic, 0u);
}

TEST(Cbr, EmissionsKeepTheirPlaceAmongSameTimeEvents) {
  // Events scheduled after install() at an emission's exact time fire after
  // that emission, as if every emission had been scheduled at install.
  TestNet tn{testutil::lineTopology(2), ProtocolKind::Dbf};
  CbrSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.start = 1_sec;
  cfg.stop = 2_sec;
  CbrSource cbr{tn.net(), cfg};
  std::vector<std::string> order;
  tn.probe().originate = [&](Time, NodeId, const Packet&) { order.push_back("emit"); };
  cbr.install();
  const std::vector<Time> times = windowLoop(cfg.packetsPerSecond, cfg.start, cfg.stop);
  for (const Time t : times) tn.scheduler().scheduleAt(t, [&] { order.push_back("later"); });
  tn.runUntil(cfg.stop);
  ASSERT_EQ(order.size(), 2 * times.size());
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], "emit") << "at emission " << i / 2;
    EXPECT_EQ(order[i + 1], "later") << "at emission " << i / 2;
  }
}

TEST(Cbr, AtMostOneEmissionIsPending) {
  const CbrRun r = runCbr(1500.0, 1_sec, 3_sec);
  // Time::seconds truncates 1/1500 s to 666,666 ns, so 2 s hold 3001.
  EXPECT_EQ(r.packetsSent, 3001u);
  EXPECT_EQ(r.originated, windowLoop(1500.0, 1_sec, 3_sec));
  EXPECT_EQ(r.maxPendingTraffic, 1u);
}

TEST(Cbr, PoolDoesNotGrowWithTheTrafficWindow) {
  // The appendix load sweep's heaviest cell, at two window lengths.
  auto poolFor = [](Time window, std::uint64_t* emissions) {
    ScenarioConfig cfg;
    cfg.protocol = ProtocolKind::Dbf;
    cfg.mesh.degree = 4;
    cfg.packetsPerSecond = 1500.0;
    cfg.tracePackets = false;
    cfg.trafficStop = cfg.trafficStart + window;
    Scenario sc{cfg};
    sc.run();
    *emissions = sc.scheduler().kindStats(EventKind::Traffic).executed;
    return sc.scheduler().poolCapacity();
  };
  std::uint64_t shortEmissions = 0;
  std::uint64_t longEmissions = 0;
  const std::size_t shortPool = poolFor(20_sec, &shortEmissions);
  const std::size_t longPool = poolFor(160_sec, &longEmissions);
  // One over rate x window: the period truncates to 666,666 ns.
  EXPECT_EQ(shortEmissions, 30'001u);
  EXPECT_EQ(longEmissions, 240'001u);
  EXPECT_EQ(shortPool, longPool);
}

}  // namespace
}  // namespace rcsim
