#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace rcsim {

/// Per-second buckets of delivery statistics, the raw material of the
/// paper's Figure 5 (instantaneous throughput) and Figure 7 (instantaneous
/// packet delay).
class TimeSeries {
 public:
  struct Bucket {
    std::uint32_t delivered = 0;
    double delaySum = 0.0;  ///< seconds, over delivered packets
  };

  void recordDelivery(Time t, double delaySec) {
    auto& b = bucketAt(t);
    ++b.delivered;
    b.delaySum += delaySec;
  }

  [[nodiscard]] const Bucket& bucket(int second) const {
    static const Bucket kEmpty{};
    const auto i = static_cast<std::size_t>(second);
    return second >= 0 && i < buckets_.size() ? buckets_[i] : kEmpty;
  }

  [[nodiscard]] int size() const { return static_cast<int>(buckets_.size()); }

  [[nodiscard]] double throughputAt(int second) const {
    return static_cast<double>(bucket(second).delivered);
  }

  /// Mean end-to-end delay of packets delivered in this second (0 if none).
  [[nodiscard]] double meanDelayAt(int second) const {
    const auto& b = bucket(second);
    return b.delivered == 0 ? 0.0 : b.delaySum / b.delivered;
  }

 private:
  Bucket& bucketAt(Time t) {
    auto sec = static_cast<std::size_t>(t.ns() / 1'000'000'000);
    if (sec >= buckets_.size()) buckets_.resize(sec + 1);
    return buckets_[sec];
  }

  std::vector<Bucket> buckets_;
};

}  // namespace rcsim
