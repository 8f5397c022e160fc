#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/digest.hpp"
#include "core/fingerprint.hpp"
#include "exp/executor.hpp"
#include "exp/registry.hpp"

namespace perfbench {
namespace {

using rcsim::ProtocolKind;
using rcsim::ScenarioConfig;
using rcsim::Time;

constexpr std::size_t kMaxErrors = 8;
constexpr int kMinRepeats = 2;
constexpr double kSetupSampleSec = 0.02;
constexpr double kSampleEverySec = 1.0;
constexpr std::uint64_t kClockLoopIterations = 4'000'000;

volatile std::uint64_t clockLoopSink = 0;

/// What one repeat of a workload's unit produced: one run of each key.
struct Unit {
  Keys keys;
  std::vector<double> replicaSec;
  std::vector<std::string> errors;
};

void recordRun(Unit& u, const std::string& key, std::string digest, std::string side,
               bool failed) {
  u.keys[key] = KeyRecord{std::move(digest), std::move(side), 1, failed ? 1U : 0U};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void noteError(std::vector<std::string>& errors, std::string msg) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(msg));
}

/// One set-up sample: CPU seconds to construct every world in `worlds`
/// (none of them run), averaged over back-to-back set-ups lasting at least
/// kSetupSampleSec.
double setupSample(const std::vector<World>& worlds) {
  const double start = nowSec();
  double sum = 0.0;
  int n = 0;
  do {
    for (const auto& w : worlds) sum += setupWorld(w);
    ++n;
  } while (nowSec() - start < kSetupSampleSec);
  return sum / n;
}

/// CPU seconds of a fixed chain of dependent integer operations that
/// stays in registers. It measures how fast the core runs at the moment,
/// independent of the simulator; run.py scales every CPU time by it.
double clockSample() {
  const double t0 = threadCpuSec();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t y = 1;
  for (std::uint64_t i = 0; i < kClockLoopIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    y = y * x + i;
  }
  clockLoopSink = x + y;
  return threadCpuSec() - t0;
}

/// Repeat `unit(i)` for i = 0, 1, ... until `budgetSec` is spent (at least
/// `minRepeats` times), stopping before a repeat that would overrun the
/// budget. A key seen before must reproduce its first digests.
/// Set-up samples of `setupWorlds` and clock samples are interleaved with
/// the repeats, one of each after the first repeat and then one per
/// kSampleEverySec of unit time, so they see the same stretch of machine
/// time as the repeats do.
void measure(Outcome& out, double budgetSec, int minRepeats,
             const std::vector<World>& setupWorlds, const std::function<Unit(int)>& unit) {
  const double start = nowSec();
  std::vector<double> reps;
  double sinceSample = 0.0;  // unit time since the last set-up and clock samples
  for (int i = 0;; ++i) {
    if (i >= minRepeats && nowSec() - start + median(reps) > budgetSec) break;
    const double t0 = nowSec();
    const double cpu0 = processCpuSec();
    Unit u = unit(i);
    out.cpuSec.push_back(processCpuSec() - cpu0);
    const double dt = nowSec() - t0;
    reps.push_back(dt);
    out.wallSec.push_back(dt);
    for (auto& e : u.errors) noteError(out.errors, std::move(e));
    out.replicaSec.insert(out.replicaSec.end(), u.replicaSec.begin(), u.replicaSec.end());
    for (auto& [key, run] : u.keys) {
      const auto [it, fresh] = out.keys.emplace(key, run);
      if (fresh) continue;
      KeyRecord& first = it->second;
      ++first.runs;
      const bool differs = run.digest != first.digest || run.side != first.side;
      if (differs && run.failed == 0) {
        noteError(out.errors, "repeat " + std::to_string(i + 1) + " differs on " + key);
      }
      if (differs || run.failed != 0) ++first.failed;
    }
    sinceSample += dt;
    while (out.setupSec.empty() || sinceSample >= kSampleEverySec) {
      out.setupSec.push_back(setupSample(setupWorlds));
      out.clockSec.push_back(clockSample());
      sinceSample = std::max(0.0, sinceSample - kSampleEverySec);
    }
  }
}

/// Paired anatomy-off/on runs of `worlds`, alternating which side runs
/// first, for at least one pair and until `budgetSec` is spent.
void measureAnatomy(Outcome& out, double budgetSec, const std::vector<World>& worlds) {
  const double start = nowSec();
  do {
    for (const auto& w : worlds) {
      World off = w;
      off.cfg.anatomy = false;
      World on = w;
      on.cfg.anatomy = true;
      const bool offFirst = out.anatomyPairs % 2 == 0;
      const WorldRun first = runWorld(offFirst ? off : on);
      const WorldRun second = runWorld(offFirst ? on : off);
      out.anatomyOffSec += offFirst ? first.totalSec : second.totalSec;
      out.anatomyOnSec += offFirst ? second.totalSec : first.totalSec;
    }
    ++out.anatomyPairs;
  } while (nowSec() - start < budgetSec);
}

using KeyedWorlds = std::vector<std::pair<std::string, World>>;

Unit runWorlds(const KeyedWorlds& worlds, Layers* layers) {
  Unit u;
  for (const auto& [key, world] : worlds) {
    try {
      const WorldRun run = layers != nullptr ? runWorldTraced(world, *layers) : runWorld(world);
      recordRun(u, key, rcsim::runResultDigest(run.result), sideDigest(run.result), false);
      u.replicaSec.push_back(run.totalSec);
    } catch (const std::exception& e) {
      recordRun(u, key, "error", "", true);
      noteError(u.errors, key + ": " + e.what());
    }
  }
  return u;
}

/// A workload whose unit is one group of worlds; repeat i runs group
/// i mod groups.size(), so every group runs at least once and, given the
/// budget, again. A traced run gives half its budget to traced repeats and
/// half to paired anatomy-overhead runs of the first group.
void runWorldWorkload(Outcome& out, const Options& opts, const std::vector<KeyedWorlds>& groups) {
  std::vector<World> firstGroup;
  for (const auto& [key, w] : groups.front()) firstGroup.push_back(w);
  Layers* layers = opts.traced ? &out.layers : nullptr;
  const double budget = opts.traced ? opts.seconds / 2 : opts.seconds;
  const int minRepeats = std::max(kMinRepeats, static_cast<int>(groups.size()));
  measure(out, budget, minRepeats, firstGroup,
          [&](int i) { return runWorlds(groups[static_cast<std::size_t>(i) % groups.size()], layers); });
  if (opts.traced) measureAnatomy(out, opts.seconds / 2, firstGroup);
}

// ---------------------------------------------------------------- mesh

/// Rows = cols of the benchmark mesh. largeMeshConfig() is 100x100, which
/// takes over a minute per world; PerfGate.LargeMeshScenarioConvergesToPinnedDigest
/// pins that size. The size is set by steadiness on a shared host: over
/// five runs of the same code, the median CPU time per world spread by 22%
/// at 30x30, 10% at 20x20 and 6% at 15x15. A 30x30 world also took 5-6x
/// the CPU time of a 20x20 one for 2.25x the nodes, the mark of a working
/// set that no longer fits the per-core caches and so competes with the
/// other tenants for the shared one.
constexpr int kMeshSize = 15;

/// largeMeshConfig() cut to kMeshSize x kMeshSize.
void meshConverge(Outcome& out, const Options& opts) {
  ScenarioConfig cfg = rcsim::largeMeshConfig();
  cfg.mesh.rows = kMeshSize;
  cfg.mesh.cols = kMeshSize;
  cfg.seed = static_cast<std::uint64_t>(opts.seed);
  runWorldWorkload(out, opts, {{{"mesh", World{cfg, false}}}});
}

// --------------------------------------------------------------- churn

constexpr int kChurnSeeds = 12;

/// ext_churn's degree-6 cells: on the 7x7 mesh every link flaps (MTBF
/// 120 s, MTTR 10 s) from trafficStart (390 s) to trafficStop (790 s). On
/// a 10x10 mesh with a 200 s storm, the CPU time per unit drifted from 3.2
/// to 2.5 s over four runs in a row of the same code on a shared host, so
/// the benchmark keeps the registry's own size. The unit is one replica
/// each of DBF, BGP and BGP3, run serially; repeats cycle over kChurnSeeds
/// replica seeds. Seed s simulates replica seeds (s-1)*kChurnSeeds+1 ..
/// s*kChurnSeeds, so the default seed runs ext_churn's first replicas.
void churnStorm(Outcome& out, const Options& opts) {
  const std::uint64_t first =
      (static_cast<std::uint64_t>(opts.seed) - static_cast<std::uint64_t>(kDefaultSeed)) *
          kChurnSeeds +
      1;
  std::vector<KeyedWorlds> groups;
  for (int i = 0; i < kChurnSeeds; ++i) {
    KeyedWorlds triple;
    for (const ProtocolKind kind : {ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
      ScenarioConfig cfg;
      cfg.protocol = kind;
      cfg.mesh.degree = 6;
      cfg.injectFailure = false;
      cfg.trafficStop = Time::seconds(790.0);
      cfg.seed = first + static_cast<std::uint64_t>(i);
      triple.emplace_back(std::string{rcsim::toString(kind)} + "/seed=" + std::to_string(cfg.seed),
                          World{cfg, true});
    }
    groups.push_back(std::move(triple));
  }
  runWorldWorkload(out, opts, groups);
}

// --------------------------------------------------------------- sweep

/// Shift of every cell's start seed: zero at the default seed, so the
/// registry's seeds (and the pins) apply; other seeds move 1000 replicas on.
std::uint64_t seedOffset(const Options& opts) {
  return (static_cast<std::uint64_t>(opts.seed) - static_cast<std::uint64_t>(kDefaultSeed)) * 1000;
}

/// CPU time of every replica the wrapped cell runners execute, plus the
/// traced runners' layer totals. Shared by the executor's worker threads.
class Recorder {
 public:
  void replica(double sec) {
    const std::lock_guard lk{mu_};
    replicaSec_.push_back(sec);
  }
  void layers(const Layers& l) {
    const std::lock_guard lk{mu_};
    addLayers(layers_, l);
  }
  std::vector<double> takeReplicas() {
    const std::lock_guard lk{mu_};
    return std::exchange(replicaSec_, {});
  }
  Layers takeLayers() {
    const std::lock_guard lk{mu_};
    return std::exchange(layers_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> replicaSec_;
  Layers layers_;
};

/// Copies of every registered experiment, start seeds shifted by the
/// benchmark seed and each cell runner wrapped in a timer. In a traced
/// run, cells on the default runner (runScenario) run the traced world
/// instead; custom runners are only timed.
std::vector<rcsim::exp::ExperimentSpec> wrappedSpecs(const Options& opts, Recorder& rec) {
  rcsim::exp::registerBuiltinExperiments();
  const std::uint64_t offset = seedOffset(opts);
  std::vector<rcsim::exp::ExperimentSpec> specs = rcsim::exp::allExperiments();
  const bool traced = opts.traced;
  for (auto& spec : specs) {
    for (auto& cell : spec.cells) {
      cell.startSeed += offset;
      auto inner = cell.run;
      cell.run = [inner, traced, &rec](const ScenarioConfig& cfg) {
        const double t0 = threadCpuSec();
        rcsim::RunResult r;
        if (inner) {
          r = inner(cfg);
        } else if (traced) {
          Layers l;
          r = runWorldTraced(World{cfg, false}, l).result;
          rec.layers(l);
        } else {
          r = rcsim::runScenario(cfg);
        }
        rec.replica(threadCpuSec() - t0);
        return r;
      };
    }
  }
  return specs;
}

std::string cellSideDigest(const rcsim::exp::CellResult& cell) {
  std::string text = rcsim::anatomyFingerprint(cell.convergence);
  for (const auto& s : cell.snapshots) text += "|" + s.before + "/" + s.after;
  return rcsim::fnv1aHexDigest(text);
}

/// One replica of every cell of every registered experiment, all jobs in
/// flight at once on one SweepExecutor (a closed loop: each worker claims
/// the next replica when it finishes one).
Unit sweepPass(const std::vector<rcsim::exp::ExperimentSpec>& specs, int workers,
               Recorder& rec) {
  Unit u;
  rcsim::exp::SweepExecutor executor{workers};
  executor.setReplicaWallLimit(0.0);
  rcsim::exp::JobOptions jobOpts;
  jobOpts.retry.maxAttempts = 1;  // a replica that throws counts as failed
  std::vector<std::shared_ptr<rcsim::exp::SweepExecutor::Job>> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) jobs.push_back(executor.submit(spec, 1, jobOpts));
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const rcsim::exp::ExperimentResult res = executor.finish(jobs[j]);
    for (std::size_t c = 0; c < specs[j].cells.size(); ++c) {
      const std::string key = specs[j].name + "/" + specs[j].cells[c].id;
      const auto& cell = res.cells[c];
      if (cell.failed()) {
        recordRun(u, key, "error", "", true);
        for (const auto& f : cell.failures) noteError(u.errors, key + ": " + f.error);
        continue;
      }
      recordRun(u, key, rcsim::aggregateDigest(cell.agg), cellSideDigest(cell), false);
    }
  }
  u.replicaSec = rec.takeReplicas();
  return u;
}

void sweepAll(Outcome& out, const Options& opts) {
  Recorder rec;
  const auto specs = wrappedSpecs(opts, rec);
  // One core is left to the rest of the host. A worker that other work
  // switches out pays in CPU time too: a world sharing a 4-core VM with
  // four busy threads took 11% more CPU time.
  const unsigned hc = std::thread::hardware_concurrency();
  out.workers = static_cast<int>(std::clamp(hc == 0 ? 3U : hc - 1, 1U, 4U));

  std::vector<World> worlds;
  std::vector<World> anatomySample;
  for (const auto& spec : specs) {
    for (const auto& cell : spec.cells) {
      ScenarioConfig cfg = cell.config;
      cfg.seed = cell.startSeed;
      worlds.push_back(World{cfg, false});
    }
  }
  // Anatomy pairs: the first default-runner cell of each experiment, read
  // from the registry because every wrapped runner is non-empty.
  for (const auto& spec : rcsim::exp::allExperiments()) {
    const auto it = std::find_if(spec.cells.begin(), spec.cells.end(),
                                 [](const auto& cell) { return !cell.run; });
    if (it == spec.cells.end()) continue;
    ScenarioConfig cfg = it->config;
    cfg.seed = it->startSeed + seedOffset(opts);
    anatomySample.push_back(World{cfg, false});
  }
  const double budget = opts.traced ? opts.seconds / 2 : opts.seconds;
  measure(out, budget, kMinRepeats, worlds,
          [&](int) { return sweepPass(specs, out.workers, rec); });
  if (opts.traced) {
    out.layers = rec.takeLayers();
    measureAnatomy(out, opts.seconds / 2, anatomySample);
  }
}

}  // namespace

Outcome runWorkload(const Options& opts) {
  Outcome out;
  if (opts.workload == "sweep_all") {
    sweepAll(out, opts);
  } else if (opts.workload == "mesh_converge") {
    meshConverge(out, opts);
  } else if (opts.workload == "churn_storm") {
    churnStorm(out, opts);
  } else {
    throw std::invalid_argument("unknown workload: " + opts.workload);
  }
  return out;
}

}  // namespace perfbench
