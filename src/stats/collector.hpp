#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "net/network.hpp"
#include "obs/path_tracer.hpp"
#include "stats/route_log.hpp"
#include "stats/timeseries.hpp"

namespace rcsim {

/// Packet-event tallies, split by cause. Data and control planes are
/// counted separately so routing messages don't pollute Figure 3/4 numbers.
struct PacketCounters {
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropNoRoute = 0;
  std::uint64_t dropTtl = 0;
  std::uint64_t dropQueue = 0;
  std::uint64_t dropLinkDown = 0;
  std::uint64_t dropInFlightCut = 0;
  std::uint64_t dropLoss = 0;     ///< DropReason::RandomLoss (fault injection)
  std::uint64_t dropCorrupt = 0;  ///< DropReason::Corrupted (fault injection)

  [[nodiscard]] std::uint64_t totalDropped() const {
    return dropNoRoute + dropTtl + dropQueue + dropLinkDown + dropInFlightCut + dropLoss +
           dropCorrupt;
  }
};

/// One-stop instrumentation: observes the network from construction to
/// destruction and feeds the counters, time series, route-change log and
/// the sender->receiver path tracer.
class StatsCollector final : public NetworkObserver {
 public:
  struct Config {
    NodeId sender = kInvalidNode;    ///< Data source (for path tracing).
    NodeId receiver = kInvalidNode;  ///< Data sink.
  };

  /// Attaches itself via Network::addObserver. The path tracer exists iff
  /// both endpoints are set; they must then be nodes of `net`.
  StatsCollector(Network& net, Config cfg);
  ~StatsCollector() override;

  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  void onDrop(Time t, NodeId where, const Packet& p, DropReason reason) override;
  void onDeliver(Time t, NodeId node, const Packet& p) override;
  void onForward(Time t, NodeId node, const Packet& p, NodeId nextHop) override;
  void onRouteChange(Time t, NodeId node, NodeId dst, NodeId oldNh, NodeId newNh) override;
  void onControlSend(Time t, NodeId from, NodeId to, const ControlPayload& payload) override;

  /// Set the failure watermark on all sub-collectors.
  void setFailureWatermark(Time t);

  [[nodiscard]] const PacketCounters& data() const { return data_; }
  [[nodiscard]] const PacketCounters& control() const { return control_; }
  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] const RouteChangeLog& routeLog() const { return routeLog_; }
  [[nodiscard]] RouteChangeLog& routeLog() { return routeLog_; }
  [[nodiscard]] const obs::PathTracer* tracer() const {
    return tracer_ ? &*tracer_ : nullptr;
  }

  /// Data packets dropped at/after the watermark, by reason (the paper's
  /// Figures 3 and 4 count only convergence-period drops).
  [[nodiscard]] const PacketCounters& dataAfterWatermark() const { return dataAfter_; }

  /// Delivered packets that had visited some node twice (escaped a loop).
  [[nodiscard]] std::uint64_t loopEscapedDeliveries() const { return loopEscaped_; }

  /// Routing-load accounting (every control payload handed to a link).
  [[nodiscard]] std::uint64_t controlMessages() const { return controlMessages_; }
  [[nodiscard]] std::uint64_t controlBytes() const { return controlBytes_; }
  [[nodiscard]] std::uint64_t controlMessagesAfterWatermark() const {
    return controlMessagesAfter_;
  }

 private:
  Network& net_;
  PacketCounters data_;
  PacketCounters dataAfter_;
  PacketCounters control_;
  TimeSeries series_;
  RouteChangeLog routeLog_;
  std::optional<obs::PathTracer> tracer_;
  Time watermark_ = Time::infinity();
  std::uint64_t loopEscaped_ = 0;
  std::uint64_t controlMessages_ = 0;
  std::uint64_t controlBytes_ = 0;
  std::uint64_t controlMessagesAfter_ = 0;
};

}  // namespace rcsim
