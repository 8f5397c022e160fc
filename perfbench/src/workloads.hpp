#pragma once

// The three benchmark workloads. Each one repeats a fixed unit of work,
// generated from the seed, until the time budget is spent; every repeat
// must reproduce the first one's digests exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "worlds.hpp"

namespace perfbench {

inline constexpr std::int64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::int64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
};

/// What one key (a world, or a sweep cell) produced over a workload's
/// repeats: the digests of its first run, how often it ran and how many of
/// those runs failed.
struct KeyRecord {
  std::string digest;  ///< the pinned one: runResultDigest, or aggregateDigest of a cell
  std::string side;    ///< what the pinned digest leaves out (FIB snapshots, anatomy)
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;  ///< runs that threw or did not reproduce the first run
};
using Keys = std::map<std::string, KeyRecord>;

struct Outcome {
  int workers = 1;
  std::vector<double> wallSec;     ///< wall time of each repeat of the unit
  std::vector<double> cpuSec;      ///< process CPU time of each repeat, all threads
  std::vector<double> setupSec;    ///< set-up CPU samples, interleaved with the repeats
  std::vector<double> clockSec;    ///< clock-loop CPU samples, taken with the set-up samples
  std::vector<double> replicaSec;  ///< CPU time of each replica, over all repeats
  std::vector<std::string> errors;
  Keys keys;
  Layers layers;  ///< traced runs only
  /// Paired anatomy-off/on runs (traced runs only).
  double anatomyOffSec = 0.0;
  double anatomyOnSec = 0.0;
  int anatomyPairs = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] Outcome runWorkload(const Options& opts);

}  // namespace perfbench
