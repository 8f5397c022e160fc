#include "worlds.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
#include <stdexcept>

#include "core/churn.hpp"
#include "core/digest.hpp"
#include "core/fingerprint.hpp"
#include "topo/loader.hpp"

namespace perfbench {
namespace {

using rcsim::ChurnInjector;
using rcsim::Scenario;
using rcsim::ScenarioConfig;
using rcsim::Time;

double cpuClockSec(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The ext_churn wiring: same injector config and RNG stream.
std::optional<ChurnInjector> installChurn(const World& world, Scenario& sc) {
  std::optional<ChurnInjector> churn;
  if (!world.churn) return churn;
  ChurnInjector::Config cc;
  cc.start = world.cfg.trafficStart;
  cc.stop = world.cfg.trafficStop;
  churn.emplace(sc.network(), rcsim::Rng{world.cfg.seed * 7919 + 13}, cc);
  churn->install();
  return churn;
}

/// CPU seconds of the topology builder the Scenario constructor calls,
/// timed as a standalone call. Zero for topologies read from the config.
double timeTopologyBuild(const ScenarioConfig& cfg) {
  const double t0 = threadCpuSec();
  switch (cfg.topology) {
    case rcsim::TopologyKind::RegularMesh:
      (void)rcsim::makeRegularMesh(cfg.mesh);
      break;
    case rcsim::TopologyKind::Random: {
      rcsim::RandomGraphSpec spec = cfg.random;
      spec.seed = cfg.seed;
      (void)rcsim::makeRandomTopology(spec);
      break;
    }
    case rcsim::TopologyKind::Named:
      (void)rcsim::namedTopology(cfg.named.graph);
      break;
    default:
      return 0.0;
  }
  return threadCpuSec() - t0;
}

/// Where the probe goes: churn worlds split at trafficStart, the rest at
/// the config's failure watermark. Infinity when there is nothing to split.
Time probeWatermark(const World& world) {
  const Time w = world.churn ? world.cfg.trafficStart : world.cfg.failureWatermark();
  if (w == Time::infinity() || w <= Time::nanoseconds(1) || w >= world.cfg.endAt) {
    return Time::infinity();
  }
  return w;
}

}  // namespace

double nowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double threadCpuSec() { return cpuClockSec(CLOCK_THREAD_CPUTIME_ID); }

double processCpuSec() { return cpuClockSec(CLOCK_PROCESS_CPUTIME_ID); }

void addLayers(Layers& into, const Layers& from) {
  for (const auto& [name, value] : from) {
    double& v = into[name];
    v = name == "sim.pool_slots" ? std::max(v, value) : v + value;
  }
}

WorldRun runWorld(const World& world) {
  WorldRun out;
  const double t0 = threadCpuSec();
  Scenario sc{world.cfg};
  out.setupSec = threadCpuSec() - t0;
  [[maybe_unused]] const auto churn = installChurn(world, sc);
  sc.run();
  out.result = rcsim::summarizeRun(sc);
  out.totalSec = threadCpuSec() - t0;
  return out;
}

WorldRun runWorldTraced(const World& world, Layers& layers) {
  Layers l;
  l["worlds"] = 1;
  l["topo.build_s"] = timeTopologyBuild(world.cfg);

  WorldRun out;
  const double t0 = threadCpuSec();
  Scenario sc{world.cfg};
  out.setupSec = threadCpuSec() - t0;
  l["core.setup_s"] = out.setupSec;
  [[maybe_unused]] const auto churn = installChurn(world, sc);

  // Snapshot at the probe: CPU time, events executed (the probe included)
  // and route changes so far.
  const Time watermark = probeWatermark(world);
  bool fired = false;
  double probeCpu = 0.0;
  std::uint64_t probeEvents = 0;
  std::uint64_t probeChanges = 0;
  if (watermark != Time::infinity()) {
    sc.scheduler().scheduleAt(watermark - Time::nanoseconds(1), [&] {
      fired = true;
      probeCpu = threadCpuSec();
      probeEvents = sc.scheduler().executedEvents();
      probeChanges = sc.stats().routeLog().totalChanges();
    });
  }

  const double runStart = threadCpuSec();
  sc.run();
  const double runEnd = threadCpuSec();
  out.result = rcsim::summarizeRun(sc);
  const double summarized = threadCpuSec();
  const std::string snapshot = sc.captureFibSnapshot();
  const double snapshotted = threadCpuSec();
  out.totalSec = summarized - t0;
  if (snapshot != out.result.fibDigestAfter) {
    throw std::runtime_error("captureFibSnapshot after run disagrees with the run's own snapshot");
  }

  const auto& sched = sc.scheduler();
  const std::uint64_t probeCount = fired ? 1 : 0;
  const rcsim::RunResult& r = out.result;
  out.result.eventsExecuted -= probeCount;

  l["sim.events"] = static_cast<double>(r.eventsExecuted);
  l["sim.events_cancelled"] = static_cast<double>(sched.cancelledEvents());
  l["sim.pool_slots"] = static_cast<double>(sched.poolCapacity());
  // Generic is left out: the probe is the only generic event.
  for (int k = 1; k < rcsim::kEventKindCount; ++k) {
    const auto kind = static_cast<rcsim::EventKind>(k);
    l[std::string{"sim.kind."} + rcsim::toString(kind)] =
        static_cast<double>(sched.kindStats(kind).executed);
  }

  l["core.run_s"] = runEnd - runStart;
  l["core.summarize_s"] = summarized - runEnd;
  l["core.fib_snapshot_s"] = snapshotted - summarized;
  const std::uint64_t changes = sc.stats().routeLog().totalChanges();
  l["routing.route_changes"] = static_cast<double>(changes);
  if (fired) {
    const std::uint64_t bootstrapEvents = probeEvents - 1;
    l["phase.bootstrap_s"] = probeCpu - runStart;
    l["phase.reconverge_s"] = runEnd - probeCpu;
    l["phase.bootstrap_events"] = static_cast<double>(bootstrapEvents);
    l["phase.reconverge_events"] = static_cast<double>(r.eventsExecuted - bootstrapEvents);
    l["routing.route_changes_after_failure"] = static_cast<double>(changes - probeChanges);
  } else {
    l["phase.bootstrap_s"] = runEnd - runStart;
    l["phase.bootstrap_events"] = static_cast<double>(r.eventsExecuted);
  }
  l["routing.control_msgs"] = static_cast<double>(r.controlMessages);
  l["routing.control_bytes"] = static_cast<double>(r.controlBytes);

  // An installed PathTracer walks the sender->receiver FIB path once per
  // route change; the walk count is inferred from that, not counted.
  if (const auto* tracer = sc.stats().tracer()) {
    l["stats.path_walks"] = static_cast<double>(changes);
    l["stats.path_events"] = static_cast<double>(tracer->events().size());
  }

  l["net.data_delivered"] = static_cast<double>(r.data.delivered);
  l["net.data_dropped"] = static_cast<double>(r.data.totalDropped());
  l["net.transport_retx"] = static_cast<double>(r.transportRetransmissions);
  l["net.transport_resets"] = static_cast<double>(r.transportSessionResets);
  l["traffic.sent"] = static_cast<double>(r.sent);
  l["obs.episodes"] = static_cast<double>(r.anatomy.episodes);
  l["obs.fib_churn"] = static_cast<double>(r.anatomy.fibChurn);

  addLayers(layers, l);
  return out;
}

double setupWorld(const World& world) {
  const double t0 = threadCpuSec();
  const Scenario sc{world.cfg};
  return threadCpuSec() - t0;
}

std::string sideDigest(const rcsim::RunResult& r) {
  return rcsim::fnv1aHexDigest(r.fibDigestBefore + "|" + r.fibDigestAfter + "|" +
                               rcsim::anatomyFingerprint(r.anatomy));
}

}  // namespace perfbench
