#pragma once

// Offline reconstruction of a run's forwarding-plane story from its
// rcsim-trace-v1 event stream — no simulator, no Network, just the events.
//
// The replayer is the independent oracle for the live path walker: it
// applies each RouteChange to a dense N x N shadow FIB, re-runs
// Network::fibWalk's algorithm from the traced sender toward the traced
// receiver after *every* route change, and appends a path record iff the
// path differs from the previous one. The live PathTracer (obs/
// path_tracer.hpp) walks only the receiver's FIB column and only when it
// changed; the two sequences must be bit-identical (test_obs.cpp, the
// fuzzer and `rcsim-trace --selftest` pin this).

#include <array>
#include <cstdint>
#include <vector>

#include "obs/path_tracer.hpp"
#include "obs/trace_io.hpp"

namespace rcsim::obs {

struct ReplayOptions {
  NodeId src = kInvalidNode;  ///< traced sender (header meta "src")
  NodeId dst = kInvalidNode;  ///< traced receiver (header meta "dst")
  std::size_t nodeCount = 0;  ///< number of nodes (header meta "nodes")
};

/// A contiguous span during which the src→dst path looped / black-holed.
struct ReplayWindow {
  Time begin{};
  Time end{};             ///< meaningful only when !openAtEnd
  bool openAtEnd = false; ///< condition still held at the last path change

  [[nodiscard]] double seconds() const { return openAtEnd ? -1.0 : (end - begin).toSeconds(); }

  friend bool operator==(const ReplayWindow&, const ReplayWindow&) = default;
};

struct ReplayResult {
  std::vector<PathEvent> pathEvents;
  std::vector<ReplayWindow> loopWindows;
  std::vector<ReplayWindow> blackholeWindows;
  /// Chronological BGP update-pacing story: MraiArm / MraiFire /
  /// BgpAdvert / BgpWithdraw events, in stream order.
  std::vector<TraceEvent> mraiTimeline;
  /// Events seen per TraceKind (index = numeric kind value).
  std::array<std::uint64_t, kTraceKindCount> kindCounts{};

  std::uint64_t delivered = 0;  ///< Deliver events (data plane)
  std::uint64_t dropped = 0;    ///< Drop events (data packets only, z==1)
};

/// Populate ReplayOptions from a trace header's meta object (keys "src",
/// "dst", "nodes"). Missing keys leave the defaults; callers can override.
[[nodiscard]] ReplayOptions replayOptionsFromMeta(const JsonValue& meta);

[[nodiscard]] ReplayResult replayTrace(const std::vector<TraceEvent>& events,
                                       const ReplayOptions& opt);

inline ReplayResult replayTrace(const TraceFile& file) {
  return replayTrace(file.events, replayOptionsFromMeta(file.meta));
}

}  // namespace rcsim::obs
