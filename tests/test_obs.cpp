// Observability subsystem tests: metrics registry semantics, the
// rcsim-trace-v1 wire format (encode/decode/CRC/torn tail), trace
// determinism across identical seeds, replay agreement with the live
// PathTracer, the online convergence-anatomy profiler (episode
// semantics, offline-replay equivalence, verbatim sink chaining), and
// the executor's published metrics block.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "exp/executor.hpp"
#include "exp/spec.hpp"
#include "obs/anatomy.hpp"
#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/trace_io.hpp"
#include "stats/collector.hpp"
#include "test_util.hpp"

namespace rcsim::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("x"), &c);
}

TEST(Metrics, GaugeTracksLastAndMax) {
  Gauge g;
  g.set(3.0);
  g.set(7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.maxValue(), 7.5);
}

TEST(Metrics, HistogramEmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, HistogramStatsAndQuantiles) {
  Histogram h;
  for (const double v : {0.001, 0.002, 0.004, 0.008, 1.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.minValue(), 0.001);
  EXPECT_DOUBLE_EQ(h.maxValue(), 1.0);
  EXPECT_NEAR(h.mean(), 1.015 / 5.0, 1e-12);
  // Quantiles are bucket upper bounds (1e-6 * 2^i) clamped to [min, max]:
  // the median of five power-of-two-spaced samples resolves to at most
  // 0.004's bucket bound, 0.004096.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.002);
  EXPECT_LE(p50, 0.004096);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.001);
}

TEST(Metrics, RegistryJsonOmitsEmptySectionsAndSortsNames) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.toJson().object.empty());

  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  const JsonValue doc = reg.toJson();
  ASSERT_TRUE(doc.has("counters"));
  EXPECT_FALSE(doc.has("gauges"));
  EXPECT_FALSE(doc.has("histograms"));
  const auto& counters = doc.at("counters").object;
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.begin()->first, "a.one");  // std::map iterates sorted

  reg.gauge("g").set(4.0);
  reg.histogram("h").observe(0.5);
  const JsonValue full = reg.toJson();
  EXPECT_DOUBLE_EQ(full.at("gauges").at("g").numberAt("max"), 4.0);
  EXPECT_DOUBLE_EQ(full.at("histograms").at("h").numberAt("count"), 1.0);
}

TEST(Metrics, HistogramZeroCountSnapshotIsAllZero) {
  Histogram h;
  const JsonValue snap = h.toJson();
  EXPECT_DOUBLE_EQ(snap.numberAt("count"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("sum"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("min"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("max"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("mean"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("p50"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("p90"), 0.0);
  EXPECT_DOUBLE_EQ(snap.numberAt("p99"), 0.0);
}

TEST(Metrics, HistogramExactPowerOfTwoBucketBoundary) {
  // kSmallest * 2^10 sits exactly on a bucket's upper bound; ceil(log2)
  // keeps it in that bucket, so a single such sample quantiles to itself
  // (the bound clamps to [min, max] = [v, v]).
  const double v = Histogram::kSmallest * 1024.0;
  Histogram h;
  h.observe(v);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.minValue(), v);
  EXPECT_DOUBLE_EQ(h.maxValue(), v);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), v);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), v);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), v);
  // One epsilon above the bound must not quantile below the sample: the
  // next bucket's bound still clamps to the observed max.
  Histogram above;
  const double v2 = v * (1.0 + 1e-9);
  above.observe(v2);
  EXPECT_DOUBLE_EQ(above.quantile(0.5), v2);
}

TEST(Metrics, HistogramSaturatingTopBucket) {
  // Values past kSmallest * 2^(kBuckets-1) all land in the open-ended top
  // bucket; quantiles stay clamped to the true observed extremes instead
  // of the bucket's (absent) upper bound.
  Histogram h;
  const double top = Histogram::kSmallest * std::ldexp(1.0, Histogram::kBuckets - 1);
  h.observe(top * 2.0);
  h.observe(1e30);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.maxValue(), 1e30);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1e30);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), top * 2.0);
  const JsonValue snap = h.toJson();
  EXPECT_DOUBLE_EQ(snap.numberAt("p99"), 1e30);
  // Non-finite observations are ignored, negatives clamp to zero.
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  h.observe(-1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
}

TEST(Metrics, ConcurrentMergeFromTwoScopeThreads) {
  // Two threads publish into one shared registry through their own
  // MetricsScope (the executor's worker-thread pattern); counters and
  // histogram totals must merge exactly. Run under TSan by ci.sh.
  MetricsRegistry reg;
  constexpr int kPerThread = 10000;
  auto work = [&reg] {
    MetricsScope scope{reg};
    MetricsRegistry* r = currentMetrics();
    ASSERT_NE(r, nullptr);
    for (int i = 0; i < kPerThread; ++i) {
      r->counter("merge.count").add();
      r->histogram("merge.lat").observe(1e-3);
    }
  };
  std::thread a{work};
  std::thread b{work};
  a.join();
  b.join();
  EXPECT_EQ(reg.counter("merge.count").value(), 2u * kPerThread);
  EXPECT_EQ(reg.histogram("merge.lat").count(), 2u * kPerThread);
  EXPECT_NEAR(reg.histogram("merge.lat").sum(), 2.0 * kPerThread * 1e-3, 1e-9);
}

TEST(Metrics, ScopeInstallsAndRestoresThreadLocal) {
  EXPECT_EQ(currentMetrics(), nullptr);
  MetricsRegistry outer;
  {
    MetricsScope a{outer};
    EXPECT_EQ(currentMetrics(), &outer);
    MetricsRegistry inner;
    {
      MetricsScope b{inner};
      EXPECT_EQ(currentMetrics(), &inner);
    }
    EXPECT_EQ(currentMetrics(), &outer);
  }
  EXPECT_EQ(currentMetrics(), nullptr);
}

// ------------------------------------------------------------ wire format

TEST(TraceIo, EventLineRoundTrips) {
  const TraceEvent ev{Time::seconds(400.25), TraceKind::RouteChange, 7, kInvalidNode, 42, 3, -1};
  const std::string line = encodeTraceLine(ev);
  TraceEvent back{};
  ASSERT_TRUE(decodeTraceLine(line, back));
  EXPECT_EQ(back, ev);
}

TEST(TraceIo, TamperedLineFailsCrc) {
  const TraceEvent ev{Time::seconds(1.0), TraceKind::Forward, 1, 2, 100, 64, 48};
  std::string line = encodeTraceLine(ev);
  const auto pos = line.find("100");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, 3, "101");
  TraceEvent back{};
  EXPECT_FALSE(decodeTraceLine(line, back));
}

TEST(TraceIo, HeaderAndGarbageLinesAreNotEvents) {
  TraceEvent back{};
  EXPECT_FALSE(decodeTraceLine(encodeTraceHeader(JsonValue::makeObject()), back));
  EXPECT_FALSE(decodeTraceLine("not json", back));
  EXPECT_FALSE(decodeTraceLine("", back));
}

TEST(TraceIo, FileRoundTripAndTornTail) {
  const std::string path = std::filesystem::temp_directory_path() / "rcsim_obs_trace.jsonl";
  JsonValue meta = JsonValue::makeObject();
  meta.object["src"] = JsonValue::makeNumber(3);
  meta.object["dst"] = JsonValue::makeNumber(45);
  meta.object["nodes"] = JsonValue::makeNumber(49);

  std::vector<TraceEvent> events;
  {
    FileTraceSink sink{path, meta};
    for (int i = 0; i < 100; ++i) {
      const TraceEvent ev{Time::seconds(i), TraceKind::ControlSend, i % 7, (i + 1) % 7, i, 0, 0};
      events.push_back(ev);
      sink.onTraceEvent(ev);
    }
    sink.close();
    EXPECT_EQ(sink.eventsWritten(), 100u);
  }

  const TraceFile clean = readTraceFile(path);
  EXPECT_EQ(clean.corrupt, 0u);
  ASSERT_EQ(clean.events.size(), events.size());
  EXPECT_EQ(clean.events, events);
  EXPECT_EQ(clean.meta.numberAt("nodes"), 49.0);

  // A mid-write kill tears the last line; the reader skips and counts it.
  {
    std::ofstream torn{path, std::ios::app};
    torn << R"({"crc":"00000000","ev":[1,2,)";  // truncated record
  }
  const TraceFile repaired = readTraceFile(path);
  EXPECT_EQ(repaired.corrupt, 1u);
  EXPECT_EQ(repaired.events, events);

  std::filesystem::remove(path);
}

TEST(TraceIo, MissingOrHeaderlessFileThrows) {
  EXPECT_THROW((void)readTraceFile("/nonexistent/rcsim.trace"), std::runtime_error);
  const std::string path = std::filesystem::temp_directory_path() / "rcsim_obs_headerless.jsonl";
  {
    std::ofstream out{path};
    out << encodeTraceLine(TraceEvent{Time::seconds(1.0), TraceKind::LinkUp, 0, 1, 0, 0, 0})
        << "\n";
  }
  EXPECT_THROW((void)readTraceFile(path), std::runtime_error);
  std::filesystem::remove(path);
}

// --------------------------------------------------- determinism + replay

ScenarioConfig quickConfig(ProtocolKind kind, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = 4;
  cfg.seed = seed;
  cfg.trafficStart = Time::seconds(90.0);
  cfg.trafficStop = Time::seconds(150.0);
  cfg.failAt = Time::seconds(100.0);
  cfg.endAt = Time::seconds(200.0);
  return cfg;
}

std::vector<TraceEvent> traceRun(const ScenarioConfig& cfg) {
  Scenario sc{cfg};
  MemoryTraceSink sink;
  sc.network().trace().setSink(&sink);
  sc.run();
  return sink.events();
}

TEST(TraceDeterminism, IdenticalSeedsProduceIdenticalDigests) {
  const ScenarioConfig cfg = quickConfig(ProtocolKind::Rip, 7);
  const auto a = traceRun(cfg);
  const auto b = traceRun(cfg);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(traceDigest(a), traceDigest(b));
  EXPECT_NE(traceDigest(a), traceDigest(traceRun(quickConfig(ProtocolKind::Rip, 8))));
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheRun) {
  // The RNG stream must not depend on whether a sink is installed — the
  // MRAI jitter draw in particular happens unconditionally.
  const ScenarioConfig cfg = quickConfig(ProtocolKind::Bgp, 11);
  const RunResult untraced = runScenario(cfg);
  Scenario sc{cfg};
  MemoryTraceSink sink;
  sc.network().trace().setSink(&sink);
  sc.run();
  EXPECT_EQ(sc.scheduler().executedEvents(), untraced.eventsExecuted);
  EXPECT_EQ(sc.stats().data().delivered, untraced.data.delivered);
  EXPECT_EQ(sc.stats().data().dropNoRoute, untraced.data.dropNoRoute);
}

void expectReplayMatchesPathTracer(ProtocolKind kind, std::uint64_t seed) {
  const ScenarioConfig cfg = quickConfig(kind, seed);
  Scenario sc{cfg};
  MemoryTraceSink sink;
  sc.network().trace().setSink(&sink);
  // Reference walker over the *real* FIBs: Network::fibWalk after every
  // route change, recording only changed paths. The live PathTracer sees
  // only the route-change arguments, so agreement also shows that those
  // arguments reflect the FIB writes.
  std::vector<PathEvent> walked;
  testutil::NetworkProbe reference{sc.network()};
  reference.routeChange = [&](Time t, NodeId, NodeId, NodeId, NodeId) {
    bool loop = false;
    bool blackhole = false;
    auto path = sc.network().fibWalk(sc.sender(), sc.receiver(), &loop, &blackhole);
    if (!walked.empty() && walked.back().path == path) return;
    walked.push_back(PathEvent{t, std::move(path), loop, blackhole});
  };
  sc.run();

  ReplayOptions opt;
  opt.src = sc.sender();
  opt.dst = sc.receiver();
  opt.nodeCount = sc.network().nodeCount();
  const ReplayResult replay = replayTrace(sink.events(), opt);

  const PathTracer* live = sc.stats().tracer();
  ASSERT_NE(live, nullptr);
  ASSERT_EQ(replay.pathEvents.size(), live->events().size());
  for (std::size_t i = 0; i < replay.pathEvents.size(); ++i) {
    const auto& r = replay.pathEvents[i];
    const auto& l = live->events()[i];
    EXPECT_EQ(r.t, l.t) << "path event " << i;
    EXPECT_EQ(r.path, l.path) << "path event " << i;
    EXPECT_EQ(r.loop, l.loop) << "path event " << i;
    EXPECT_EQ(r.blackhole, l.blackhole) << "path event " << i;
  }
  EXPECT_TRUE(walked == live->events()) << walked.size() << " walked vs "
                                        << live->events().size() << " live path events";
  // The data-plane tallies must agree with the live collector too
  // (control packets are consumed before deliverLocally, so Deliver
  // events are data-only).
  EXPECT_EQ(replay.delivered, sc.stats().data().delivered);
}

TEST(TraceReplay, AgreesWithPathTracerRip) { expectReplayMatchesPathTracer(ProtocolKind::Rip, 7); }

TEST(TraceReplay, AgreesWithPathTracerBgp) { expectReplayMatchesPathTracer(ProtocolKind::Bgp, 5); }

TEST(TraceReplay, OptionsFromMetaAndWindows) {
  JsonValue meta = JsonValue::makeObject();
  meta.object["src"] = JsonValue::makeNumber(0);
  meta.object["dst"] = JsonValue::makeNumber(2);
  meta.object["nodes"] = JsonValue::makeNumber(3);
  const ReplayOptions opt = replayOptionsFromMeta(meta);
  EXPECT_EQ(opt.src, 0);
  EXPECT_EQ(opt.dst, 2);
  EXPECT_EQ(opt.nodeCount, 3u);

  // Hand-built 3-node line: 0 -> 1 -> 2, then 1 loses its route (black
  // hole), then 1 points back at 0 (loop), then the path heals.
  std::vector<TraceEvent> events;
  auto route = [&events](double t, NodeId node, std::int64_t dst, std::int64_t nh) {
    events.push_back(TraceEvent{Time::seconds(t), TraceKind::RouteChange, node, kInvalidNode, dst,
                                kInvalidNode, nh});
  };
  route(1.0, 0, 2, 1);
  route(1.0, 1, 2, 2);
  route(2.0, 1, 2, kInvalidNode);  // blackhole window opens
  route(3.0, 1, 2, 0);             // loop 0<->1 window opens
  route(4.0, 1, 2, 2);             // healed
  const ReplayResult r = replayTrace(events, opt);
  // Two blackhole windows: a zero-length one while the FIB is half-built
  // at t=1 (only 0's route installed yet), then the real 1 s outage.
  ASSERT_EQ(r.blackholeWindows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.blackholeWindows[0].seconds(), 0.0);
  EXPECT_FALSE(r.blackholeWindows[1].openAtEnd);
  EXPECT_DOUBLE_EQ(r.blackholeWindows[1].seconds(), 1.0);
  ASSERT_EQ(r.loopWindows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.loopWindows[0].seconds(), 1.0);
  ASSERT_FALSE(r.pathEvents.empty());
  EXPECT_EQ(r.pathEvents.back().path, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(r.kindCounts[static_cast<std::size_t>(TraceKind::RouteChange)], 5u);
}

// ----------------------------------------------------- executor profiling

TEST(ExecutorMetrics, JobPublishesSweepProfile) {
  exp::ExperimentSpec spec;
  spec.name = "obs_metrics_probe";
  ScenarioConfig cfg = quickConfig(ProtocolKind::Dbf, 3);
  for (int i = 0; i < 2; ++i) {
    exp::CellSpec cell;
    cell.id = "cell" + std::to_string(i);
    cell.config = cfg;
    cell.startSeed = 10 + static_cast<std::uint64_t>(i);
    spec.cells.push_back(cell);
  }
  exp::SweepExecutor executor{2};
  const exp::ExperimentResult result = executor.execute(spec, 3);

  ASSERT_EQ(result.metrics.kind, JsonValue::Kind::Object);
  const JsonValue& m = result.metrics;
  ASSERT_TRUE(m.has("counters"));
  EXPECT_DOUBLE_EQ(m.at("counters").numberAt("replica.ok"), 6.0);
  EXPECT_DOUBLE_EQ(m.at("counters").numberAt("cell.completed"), 2.0);
  // Scheduler totals flow in through the thread-local MetricsScope.
  EXPECT_GT(m.at("counters").numberAt("sim.events_executed"), 0.0);
  ASSERT_TRUE(m.has("histograms"));
  EXPECT_DOUBLE_EQ(m.at("histograms").at("replica.wall_sec").numberAt("count"), 6.0);
}

// ------------------------------------------------- convergence anatomy

// Live chained analyzer vs offline replay vs offline analyzer, on real
// (short) scenarios. The same cross-check over the 20 default-config
// golden scenarios lives in test_perf_gate.cpp next to the pinned
// digests; this one keeps the equivalence in the fast suite.
void expectAnatomyMatchesReplay(ProtocolKind kind, std::uint64_t seed) {
  const ScenarioConfig cfg = quickConfig(kind, seed);
  Scenario sc{cfg};
  MemoryTraceSink sink;
  sc.attachTraceSink(&sink);  // chained behind the analyzer, not instead of it
  sc.run();

  const ConvergenceAnalyzer* live = sc.convergenceAnalyzer();
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->finished());

  ReplayOptions opt;
  opt.src = sc.sender();
  opt.dst = sc.receiver();
  opt.nodeCount = sc.network().nodeCount();
  const ReplayResult replay = replayTrace(sink.events(), opt);
  const AnatomyReport& on = live->report();
  EXPECT_EQ(on.pathEvents, replay.pathEvents);
  EXPECT_EQ(on.loopWindows, replay.loopWindows);
  EXPECT_EQ(on.blackholeWindows, replay.blackholeWindows);
  EXPECT_EQ(on.kindCounts, replay.kindCounts);
  EXPECT_EQ(on.delivered, replay.delivered);
  EXPECT_EQ(on.dropped, replay.dropped);

  // The offline analyzer over the recorded stream is the same computation
  // rcsim-inspect runs on a trace file: it must reproduce the live
  // episode list (and the whole report) exactly.
  const AnatomyReport offline = analyzeTrace(sink.events(), opt);
  EXPECT_EQ(on.episodes, offline.episodes);
  EXPECT_EQ(on.perNodeControlMessages, offline.perNodeControlMessages);
  EXPECT_EQ(on.perNodeControlBytes, offline.perNodeControlBytes);
  EXPECT_EQ(anatomyDigest(on.summary()), anatomyDigest(offline.summary()));

  // One failure at t=100 inside the traffic window: the profiler must
  // have seen it.
  ASSERT_GE(on.episodes.size(), 1u);
  EXPECT_GT(on.summary().controlMessages, 0u);
}

TEST(Anatomy, OnlineMatchesOfflineRip) { expectAnatomyMatchesReplay(ProtocolKind::Rip, 7); }

TEST(Anatomy, OnlineMatchesOfflineBgp) { expectAnatomyMatchesReplay(ProtocolKind::Bgp, 5); }

TEST(Anatomy, OnlineMatchesOfflineDbf) { expectAnatomyMatchesReplay(ProtocolKind::Dbf, 3); }

TEST(Anatomy, DigestUnchangedWithAnatomyOff) {
  // The profiler is observe-only: switching it off must not move the
  // run digest (which the analyzer's summary is deliberately outside of).
  ScenarioConfig cfg = quickConfig(ProtocolKind::Bgp3, 2);
  const RunResult on = runScenario(cfg);
  cfg.anatomy = false;
  const RunResult off = runScenario(cfg);
  EXPECT_EQ(runResultDigest(on), runResultDigest(off));
  EXPECT_GT(on.anatomy.episodes, 0u);
  EXPECT_EQ(off.anatomy, AnatomySummary{});  // all-zero when disabled
}

TEST(Anatomy, EpisodeSemanticsOnSyntheticStream) {
  ReplayOptions opt;
  opt.src = 0;
  opt.dst = 2;
  opt.nodeCount = 3;

  // 3-node line 0 -> 1 -> 2 with a fully scripted disruption, exercising
  // every episode field.
  std::vector<TraceEvent> events;
  auto emit = [&events](double t, TraceKind kind, NodeId a, NodeId b, std::int64_t x,
                        std::int64_t y, std::int64_t z) {
    events.push_back(TraceEvent{Time::seconds(t), kind, a, b, x, y, z});
  };
  auto route = [&emit](double t, NodeId node, std::int64_t dst, std::int64_t nh) {
    emit(t, TraceKind::RouteChange, node, kInvalidNode, dst, kInvalidNode, nh);
  };
  auto drop = [&emit](double t, DropReason why, std::int64_t data) {
    emit(t, TraceKind::Drop, 1, kInvalidNode, 42, static_cast<std::int64_t>(why), data);
  };

  // Pre-episode FIB build: outside any episode, so no episode churn.
  route(1.0, 0, 2, 1);
  route(1.0, 1, 2, 2);

  // Episode 0: FaultApply + same-instant LinkDown merge into ONE episode.
  emit(10.0, TraceKind::FaultApply, 0, 1, 0, 0, 0);
  emit(10.0, TraceKind::LinkDown, 0, 1, 0, 0, 0);
  emit(10.5, TraceKind::AdjDown, 1, 0, 0, 0, 0);  // hello detection
  route(11.0, 1, 2, kInvalidNode);                // blackhole opens
  drop(11.5, DropReason::NoRoute, 1);             // blackhole drop
  drop(11.5, DropReason::NoRoute, 0);             // control-plane: ignored
  route(12.0, 1, 2, 0);                           // loop 0<->1 opens, blackhole closes
  drop(12.5, DropReason::TtlExpired, 1);          // TTL death inside the loop
  route(13.0, 1, 2, 2);                           // healed; loop closes
  drop(13.5, DropReason::TtlExpired, 1);          // plain TTL drop (no loop open)
  drop(13.6, DropReason::QueueOverflow, 1);
  drop(13.7, DropReason::RandomLoss, 1);
  emit(14.0, TraceKind::Deliver, 2, kInvalidNode, 7, 0, 2);
  emit(14.1, TraceKind::ControlSend, 1, 2, 64, 0, 0);
  emit(14.2, TraceKind::HelloSend, 0, 1, 16, 0, 0);
  emit(14.3, TraceKind::DvTriggered, 1, kInvalidNode, 1, 0, 0);
  emit(14.4, TraceKind::DvPeriodic, 0, kInvalidNode, 3, 0, 0);
  emit(14.5, TraceKind::MraiArm, 1, 2, 1000, 0, -1);
  emit(14.6, TraceKind::MraiFire, 1, 2, 1, 0, -1);

  // Episode 1: repair trigger; its blackhole window is still open at the
  // end of the stream.
  emit(20.0, TraceKind::LinkUp, 0, 1, 0, 0, 0);
  route(21.0, 1, 2, kInvalidNode);

  const AnatomyReport r = analyzeTrace(events, opt);

  ASSERT_EQ(r.episodes.size(), 2u);
  const ConvergenceEpisode& e0 = r.episodes[0];
  EXPECT_EQ(e0.trigger, TraceKind::FaultApply);
  EXPECT_EQ(e0.triggerCount, 2);  // FaultApply + same-instant LinkDown
  EXPECT_EQ(e0.start, Time::seconds(10.0));
  EXPECT_EQ(e0.detectAt, Time::seconds(10.5));  // AdjDown, not RouteChange
  EXPECT_DOUBLE_EQ(e0.detectionSec(), 0.5);
  EXPECT_EQ(e0.firstRouteChangeAt, Time::seconds(11.0));
  EXPECT_EQ(e0.lastRouteChangeAt, Time::seconds(13.0));
  EXPECT_DOUBLE_EQ(e0.convergenceSec(), 2.0);
  EXPECT_EQ(e0.routeChanges, 3u);
  EXPECT_EQ(e0.loopWindows, 1);
  EXPECT_DOUBLE_EQ(e0.loopSeconds, 1.0);
  EXPECT_FALSE(e0.loopOpenAtEnd);
  EXPECT_EQ(e0.blackholeWindows, 1);
  EXPECT_DOUBLE_EQ(e0.blackholeSeconds, 1.0);
  EXPECT_FALSE(e0.blackholeOpenAtEnd);
  EXPECT_EQ(e0.dropsBlackhole, 1u);
  EXPECT_EQ(e0.dropsLoop, 1u);
  EXPECT_EQ(e0.dropsTtl, 1u);
  EXPECT_EQ(e0.dropsQueue, 1u);
  EXPECT_EQ(e0.dropsOther, 1u);
  EXPECT_EQ(e0.delivered, 1u);
  EXPECT_EQ(e0.controlMessages, 1u);
  EXPECT_EQ(e0.controlBytes, 64u);
  EXPECT_EQ(e0.mraiDeferred, 1u);
  EXPECT_EQ(e0.dvTriggered, 1u);

  const ConvergenceEpisode& e1 = r.episodes[1];
  EXPECT_EQ(e1.trigger, TraceKind::LinkUp);
  EXPECT_EQ(e1.triggerCount, 1);
  EXPECT_EQ(e1.detectAt, Time::seconds(21.0));  // first RouteChange detects
  EXPECT_EQ(e1.blackholeWindows, 1);
  EXPECT_TRUE(e1.blackholeOpenAtEnd);  // finish() marks the open window
  EXPECT_DOUBLE_EQ(e1.blackholeSeconds, 0.0);

  // Whole-run accounting: hello/periodic/fire are run-level only.
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.dropped, 5u);  // the control-plane NoRoute drop is excluded
  EXPECT_EQ(r.dropsBlackhole, 1u);
  EXPECT_EQ(r.dropsLoop, 1u);
  EXPECT_EQ(r.dropsTtl, 1u);
  EXPECT_EQ(r.dropsQueue, 1u);
  EXPECT_EQ(r.dropsOther, 1u);
  EXPECT_EQ(r.controlMessages, 1u);
  EXPECT_EQ(r.controlBytes, 64u);
  EXPECT_EQ(r.helloMessages, 1u);
  EXPECT_EQ(r.helloBytes, 16u);
  EXPECT_EQ(r.dvTriggered, 1u);
  EXPECT_EQ(r.dvPeriodic, 1u);
  EXPECT_EQ(r.mraiArmed, 1u);
  EXPECT_EQ(r.mraiFired, 1u);
  ASSERT_EQ(r.perNodeControlMessages.size(), 3u);
  EXPECT_EQ(r.perNodeControlMessages[1], 1u);  // the ControlSend
  EXPECT_EQ(r.perNodeControlBytes[1], 64u);
  EXPECT_EQ(r.perNodeControlMessages[0], 1u);  // hellos bill their sender
  EXPECT_EQ(r.perNodeControlBytes[0], 16u);

  // Window lists: the t=1 half-built-FIB blip, e0's outage, e1's open one.
  ASSERT_EQ(r.blackholeWindows.size(), 3u);
  EXPECT_TRUE(r.blackholeWindows.back().openAtEnd);
  ASSERT_EQ(r.loopWindows.size(), 1u);

  // Summary fold over the same report.
  const AnatomySummary s = r.summary();
  EXPECT_EQ(s.episodes, 2u);
  EXPECT_EQ(s.triggers, 3u);
  EXPECT_EQ(s.detectedEpisodes, 2u);
  EXPECT_DOUBLE_EQ(s.detectionSecTotal, 0.5 + 1.0);
  EXPECT_EQ(s.convergedEpisodes, 2u);
  EXPECT_EQ(s.fibChurn, 4u);
  EXPECT_EQ(s.loopWindows, 1u);
  EXPECT_EQ(s.blackholeWindows, 3u);
  // Closed windows only: 0-length blip + 1 s outage; the open one is skipped.
  EXPECT_DOUBLE_EQ(s.blackholeSeconds, 1.0);
}

TEST(Anatomy, ChainsDownstreamVerbatim) {
  // As a chained TraceSink the analyzer must forward every event
  // unchanged — including events after finish(), which it no longer
  // analyzes but still passes through (a recorder downstream must not
  // lose the tail).
  ReplayOptions opt;
  opt.src = 0;
  opt.dst = 1;
  opt.nodeCount = 2;
  MemoryTraceSink downstream;
  ConvergenceAnalyzer analyzer{opt, &downstream};
  EXPECT_EQ(analyzer.downstream(), &downstream);

  std::vector<TraceEvent> sent;
  auto feed = [&](double t, TraceKind kind) {
    TraceEvent ev{Time::seconds(t), kind, 0, 1, 0, 0, 0};
    sent.push_back(ev);
    analyzer.onTraceEvent(ev);
  };
  feed(1.0, TraceKind::LinkDown);
  feed(2.0, TraceKind::ControlSend);
  analyzer.finish();
  analyzer.finish();  // idempotent
  feed(3.0, TraceKind::ControlSend);

  ASSERT_EQ(downstream.events().size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(traceDigest({downstream.events()[i]}), traceDigest({sent[i]})) << "event " << i;
  }
  // Analysis stopped at finish(): the post-finish ControlSend is not billed.
  EXPECT_EQ(analyzer.report().controlMessages, 1u);
}

TEST(Anatomy, SummaryFoldAndDigestSensitivity) {
  AnatomySummary a;
  a.episodes = 2;
  a.detectionSecTotal = 0.25;
  a.dropsLoop = 3;
  AnatomySummary b;
  b.episodes = 1;
  b.detectionSecTotal = 0.5;
  b.controlBytes = 100;
  AnatomySummary sum = a;
  sum += b;
  EXPECT_EQ(sum.episodes, 3u);
  EXPECT_DOUBLE_EQ(sum.detectionSecTotal, 0.75);
  EXPECT_EQ(sum.dropsLoop, 3u);
  EXPECT_EQ(sum.controlBytes, 100u);

  // The digest pins the executor's serial == pooled fold: equal summaries
  // agree, any field move is visible.
  EXPECT_EQ(anatomyDigest(a), anatomyDigest(a));
  AnatomySummary mutated = a;
  mutated.dropsBlackhole += 1;
  EXPECT_NE(anatomyDigest(mutated), anatomyDigest(a));
  EXPECT_NE(anatomyFingerprint(a), anatomyFingerprint(b));
}

TEST(Anatomy, RouteChangeOutsideNodeCountThrows) {
  // Same corrupt-trace contract as replayTrace.
  ReplayOptions opt;
  opt.src = 0;
  opt.dst = 2;
  opt.nodeCount = 3;
  std::vector<TraceEvent> events;
  events.push_back(
      TraceEvent{Time::seconds(1.0), TraceKind::RouteChange, 5, kInvalidNode, 2, kInvalidNode, 1});
  EXPECT_THROW((void)analyzeTrace(events, opt), std::runtime_error);
  // A next hop past the node count would send the walk out of bounds.
  events[0].a = 0;
  events[0].z = 7;
  EXPECT_THROW((void)analyzeTrace(events, opt), std::runtime_error);
  EXPECT_THROW((void)replayTrace(events, opt), std::runtime_error);
}

TEST(ExecutorMetrics, ProgressCountsReplicas) {
  exp::ExperimentSpec spec;
  spec.name = "obs_progress_probe";
  exp::CellSpec cell;
  cell.id = "only";
  cell.config = quickConfig(ProtocolKind::Dbf, 3);
  spec.cells.push_back(cell);

  exp::SweepExecutor executor{2};
  EXPECT_EQ(exp::SweepExecutor::progress(nullptr).total, 0u);
  auto job = executor.submit(spec, 4);
  (void)executor.finish(job);
  const exp::JobProgress done = exp::SweepExecutor::progress(job);
  EXPECT_EQ(done.total, 4u);
  EXPECT_EQ(done.completed, 4u);
}

}  // namespace
}  // namespace rcsim::obs
