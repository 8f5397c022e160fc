#pragma once

// One simulated world as the benchmark runs it, untraced or traced.
//
// Every span is CPU time of the calling thread, not wall time: on a shared
// host the wall clock also counts the time other tenants hold the CPU. With
// four busy threads of other work on a 4-core VM, a world's wall time rose
// by 49% and its CPU time by 11%.
//
// The traced run measures every layer from outside: it times calls into
// public functions (Scenario construction, Scenario::run, summarizeRun,
// captureFibSnapshot, the topology builders) and reads public counters
// (Scheduler::kindStats, StatsCollector::routeLog()/tracer(), RunResult).
// Its only intrusion is one probe event scheduled through
// Scheduler::scheduleAt at the disruption watermark minus 1 ns, which
// splits bootstrap from reconvergence. The probe raises eventsExecuted by
// exactly one; runWorldTraced subtracts it again, so a traced RunResult is
// field-for-field the untraced one.

#include <map>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace perfbench {

/// A ScenarioConfig plus, for churn worlds, a ChurnInjector wired exactly
/// the way the registry's ext_churn runner wires it (every link flaps over
/// [trafficStart, trafficStop)).
struct World {
  rcsim::ScenarioConfig cfg;
  bool churn = false;
};

/// Per-layer counters and span times of traced worlds, keyed by the
/// benchmark's per-layer metric names and summed over worlds ("worlds"
/// counts them; "sim.pool_slots" is the maximum). run.py divides by
/// "worlds" and derives the ratios.
using Layers = std::map<std::string, double>;

/// Adds `from` into `into`: a sum per key, the maximum for sim.pool_slots.
void addLayers(Layers& into, const Layers& from);

struct WorldRun {
  rcsim::RunResult result;
  double setupSec = 0.0;  ///< Scenario construction: CPU time before the first event
  double totalSec = 0.0;  ///< construction + run + summary, CPU time
};

/// Untraced: construct, run and summarize, exactly as users run a world.
[[nodiscard]] WorldRun runWorld(const World& world);

/// Traced: the same world with the watermark probe and the outside spans.
/// Adds this world's counters to `layers`. Throws std::runtime_error when
/// the extra captureFibSnapshot call disagrees with the run's own
/// end-of-run snapshot.
[[nodiscard]] WorldRun runWorldTraced(const World& world, Layers& layers);

/// CPU seconds to construct the world without running it.
[[nodiscard]] double setupWorld(const World& world);

/// Digest of what runResultDigest leaves out: the FIB snapshot digests and
/// the convergence-anatomy rollup.
[[nodiscard]] std::string sideDigest(const rcsim::RunResult& r);

/// Wall clock, for time budgets only.
[[nodiscard]] double nowSec();

/// CPU seconds of the calling thread, and of the whole process.
[[nodiscard]] double threadCpuSec();
[[nodiscard]] double processCpuSec();

}  // namespace perfbench
