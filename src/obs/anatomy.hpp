#pragma once

// Online convergence-anatomy profiling — the paper's loss decomposition
// (detection latency, protocol convergence, transient loops, black-holes,
// per-cause drops) computed *during* the run from the live TraceEvent
// stream, instead of offline from a recorded trace file.
//
// The ConvergenceAnalyzer is a TraceSink that chains: install it as the
// Tracer's sink and it forwards every event verbatim to an optional
// downstream sink (a FileTraceSink, the fuzzer's MemoryTraceSink), so
// recording and analyzing compose without either seeing a different
// stream. Its forwarding-path story comes from the shared PathTracer
// (obs/path_tracer.hpp), fed from the RouteChange events; on top of it the
// analyzer folds loop / black-hole windows and attributes them, drops and
// control traffic to episodes. It is cross-checked element-wise against
// the independent dense-FIB reconstruction in obs/replay.hpp on every
// golden scenario and on every fuzzer execution (RunStatus::
// AnatomyDivergence), which is what lets either be trusted.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/path_tracer.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"

namespace rcsim::obs {

/// One fault-triggered convergence event, decomposed into the paper's
/// phases. An episode opens at a disruption trigger (FaultApply, LinkDown
/// or LinkUp) and closes at the next trigger with a later timestamp (or at
/// end of stream). Triggers sharing one timestamp merge into one episode:
/// a FaultApply that synchronously fails a link, or a partition cutting k
/// links at one instant, is one disruption, not k.
struct ConvergenceEpisode {
  Time start{};                ///< trigger timestamp
  TraceKind trigger{};         ///< first trigger's kind
  int triggerCount = 0;        ///< same-timestamp trigger events merged in

  /// Detection latency endpoint: the first AdjDown *or* RouteChange in the
  /// episode — hello-based detection surfaces as AdjDown, oracle detection
  /// surfaces directly as the adjacent node's route change. infinity() =
  /// the episode produced no detectable reaction.
  Time detectAt = Time::infinity();
  Time firstRouteChangeAt = Time::infinity();
  Time lastRouteChangeAt = Time::infinity();
  std::uint64_t routeChanges = 0;  ///< FIB churn inside the episode

  std::uint64_t controlMessages = 0;  ///< ControlSend events in the episode
  std::uint64_t controlBytes = 0;
  std::uint64_t mraiDeferred = 0;     ///< MraiArm events (BGP update pacing)
  std::uint64_t dvTriggered = 0;      ///< triggered-update flushes

  /// Transient-loop / black-hole windows that *opened* inside this episode
  /// (a window closing in a later episode still belongs to its opener).
  /// Seconds sum closed windows only; an open-at-end window sets the flag.
  int loopWindows = 0;
  double loopSeconds = 0.0;
  bool loopOpenAtEnd = false;
  int blackholeWindows = 0;
  double blackholeSeconds = 0.0;
  bool blackholeOpenAtEnd = false;

  /// Data-plane drops inside the episode, attributed by cause: a TTL
  /// expiry while the traced path loops is a loop drop, any other TTL
  /// expiry is plain TTL; NoRoute is the black-hole signature.
  std::uint64_t dropsLoop = 0;
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;
  std::uint64_t delivered = 0;

  /// fault -> first detectable reaction; -1 when nothing reacted.
  [[nodiscard]] double detectionSec() const {
    return detectAt == Time::infinity() ? -1.0 : (detectAt - start).toSeconds();
  }
  /// first route change -> last route change; -1 when no route changed.
  [[nodiscard]] double convergenceSec() const {
    return firstRouteChangeAt == Time::infinity()
               ? -1.0
               : (lastRouteChangeAt - firstRouteChangeAt).toSeconds();
  }

  friend bool operator==(const ConvergenceEpisode&, const ConvergenceEpisode&) = default;
};

/// Per-run rollup of the episode list plus whole-run control-plane
/// accounting — the plain-data form that rides in RunResult, folds across
/// seeds in the executor (sums in seed order, so serial == pooled holds
/// bit-for-bit) and lands in the artifact's `convergence` block.
/// Deliberately NOT part of runResultFingerprint: the pinned golden
/// digests enumerate fields explicitly and predate these.
struct AnatomySummary {
  std::uint64_t episodes = 0;
  std::uint64_t triggers = 0;
  std::uint64_t detectedEpisodes = 0;   ///< episodes with a finite detectAt
  double detectionSecTotal = 0.0;       ///< sum over detected episodes
  std::uint64_t convergedEpisodes = 0;  ///< episodes with >= 1 RouteChange
  double convergenceSecTotal = 0.0;     ///< sum over converged episodes
  std::uint64_t fibChurn = 0;           ///< RouteChanges inside episodes

  std::uint64_t loopWindows = 0;  ///< whole run, episode-bound or not
  double loopSeconds = 0.0;       ///< closed windows only
  std::uint64_t blackholeWindows = 0;
  double blackholeSeconds = 0.0;

  std::uint64_t dropsLoop = 0;  ///< whole-run data-plane attribution
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;
  std::uint64_t delivered = 0;

  std::uint64_t controlMessages = 0;  ///< whole-run control accounting
  std::uint64_t controlBytes = 0;
  std::uint64_t helloMessages = 0;
  std::uint64_t helloBytes = 0;
  std::uint64_t dvTriggered = 0;
  std::uint64_t dvPeriodic = 0;
  std::uint64_t mraiArmed = 0;
  std::uint64_t mraiFired = 0;

  AnatomySummary& operator+=(const AnatomySummary& rhs);

  friend bool operator==(const AnatomySummary&, const AnatomySummary&) = default;
};

/// Everything the analyzer reconstructs. pathEvents / windows / kindCounts
/// / delivered / dropped carry the exact types and semantics of
/// ReplayResult, so the cross-check against replayTrace is a field-wise
/// compare — no translation layer to hide a divergence in.
struct AnatomyReport {
  std::vector<ConvergenceEpisode> episodes;

  std::vector<PathEvent> pathEvents;
  std::vector<ReplayWindow> loopWindows;
  std::vector<ReplayWindow> blackholeWindows;
  std::array<std::uint64_t, kTraceKindCount> kindCounts{};
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;  ///< data packets only (Drop with z==1)

  /// Whole-run data-plane drop attribution (see ConvergenceEpisode).
  std::uint64_t dropsLoop = 0;
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;

  /// Whole-run control-plane accounting, also kept per node so rcsim-
  /// inspect can rank talkers. Per-node vectors are empty when the node
  /// count is unknown (walk-less traces).
  std::uint64_t controlMessages = 0;
  std::uint64_t controlBytes = 0;
  std::uint64_t helloMessages = 0;
  std::uint64_t helloBytes = 0;
  std::uint64_t dvTriggered = 0;
  std::uint64_t dvPeriodic = 0;
  std::uint64_t mraiArmed = 0;
  std::uint64_t mraiFired = 0;
  std::vector<std::uint64_t> perNodeControlMessages;
  std::vector<std::uint64_t> perNodeControlBytes;

  [[nodiscard]] AnatomySummary summary() const;
};

/// Streaming convergence-anatomy profiler. Feed it the trace stream (as
/// the installed Tracer sink, or via analyzeTrace below), call finish()
/// once at end of stream, read report().
class ConvergenceAnalyzer : public TraceSink {
 public:
  /// `opt` carries the traced flow (src, dst) and the node count — the
  /// same triple replayTrace needs, from the same place (trace meta /
  /// Scenario). With an unusable triple the path walk is disabled and
  /// only counting/accounting runs, exactly like replayTrace.
  explicit ConvergenceAnalyzer(const ReplayOptions& opt, TraceSink* downstream = nullptr);

  /// The kinds analyze() actually consumes: episode triggers, detection
  /// and route events, data-plane fates (deliver/drop), and control-plane
  /// accounting. Everything outside this set — per-hop forwards above
  /// all — only feeds report().kindCounts. With nothing recording
  /// downstream, the Scenario narrows the Tracer's kind mask to this set
  /// so the dominant data-plane emissions cost one masked branch; a
  /// downstream sink restores the full stream (and full kindCounts).
  static constexpr std::uint32_t kConsumedKinds =
      (1u << static_cast<unsigned>(TraceKind::FaultApply)) |
      (1u << static_cast<unsigned>(TraceKind::LinkDown)) |
      (1u << static_cast<unsigned>(TraceKind::LinkUp)) |
      (1u << static_cast<unsigned>(TraceKind::AdjDown)) |
      (1u << static_cast<unsigned>(TraceKind::RouteChange)) |
      (1u << static_cast<unsigned>(TraceKind::Deliver)) |
      (1u << static_cast<unsigned>(TraceKind::Drop)) |
      (1u << static_cast<unsigned>(TraceKind::ControlSend)) |
      (1u << static_cast<unsigned>(TraceKind::HelloSend)) |
      (1u << static_cast<unsigned>(TraceKind::DvTriggered)) |
      (1u << static_cast<unsigned>(TraceKind::DvPeriodic)) |
      (1u << static_cast<unsigned>(TraceKind::MraiArm)) |
      (1u << static_cast<unsigned>(TraceKind::MraiFire));

  /// Forward target for the verbatim event stream (borrowed; null = none).
  void setDownstream(TraceSink* sink) { downstream_ = sink; }
  [[nodiscard]] TraceSink* downstream() const { return downstream_; }

  void onTraceEvent(const TraceEvent& ev) override;

  /// Close the open episode/windows. Idempotent; call after the last event.
  void finish();
  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] const AnatomyReport& report() const { return report_; }

 private:
  void analyze(const TraceEvent& ev);
  void openEpisode(const TraceEvent& ev);
  void onPathEvent(const PathEvent& e);

  TraceSink* downstream_ = nullptr;
  bool finished_ = false;
  /// Absent when the (src, dst, nodeCount) triple is unusable.
  std::optional<PathTracer> tracer_;

  bool episodeOpen_ = false;

  /// Incremental window fold (mirrors replay.cpp's post-hoc windows()):
  /// open state plus the index of the episode the open window belongs to.
  bool loopOpen_ = false;
  std::size_t loopOwner_ = kNoOwner;
  bool blackholeOpen_ = false;
  std::size_t blackholeOwner_ = kNoOwner;
  static constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

  AnatomyReport report_;
};

/// Offline entry point: run the streaming analyzer over a recorded event
/// list. rcsim-inspect and the fuzzer's cross-check both go through this,
/// so "inspect on a recorded trace" and "the live run's analyzer" are the
/// same code over the same events — equal by construction.
[[nodiscard]] AnatomyReport analyzeTrace(const std::vector<TraceEvent>& events,
                                         const ReplayOptions& opt);

}  // namespace rcsim::obs
