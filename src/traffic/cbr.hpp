#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rcsim {

class Network;

/// Constant-bit-rate source: `rate` packets per second from src to dst
/// during [start, stop), as in the paper's workload (a single CBR sender).
class CbrSource {
 public:
  struct Config {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double packetsPerSecond = 20.0;
    std::uint32_t packetBytes = 1000;
    int ttl = 127;
    Time start;
    Time stop;
    bool tracePackets = false;  ///< Record the hop sequence of every packet.
  };

  CbrSource(Network& net, Config cfg);

  /// Schedule the emissions at start, start + period, ... before stop.
  /// Only the next emission is ever pending: each one schedules its
  /// successor. Their sequence numbers are reserved here, so every event of
  /// the run fires in the order it would if all emissions were scheduled
  /// at once. Call once, before Scheduler::run.
  void install();

  [[nodiscard]] std::uint64_t packetsSent() const { return sent_; }

 private:
  void scheduleNext();
  void emitPacket();

  Network& net_;
  Config cfg_;
  std::uint64_t sent_ = 0;
  Time period_;                  ///< Time::seconds(1 / packetsPerSecond).
  Time nextAt_;                  ///< Time of the pending emission.
  std::uint64_t nextSeq_ = 0;    ///< Its reserved sequence number.
  std::uint64_t remaining_ = 0;  ///< Emissions not yet fired, pending one included.
};

}  // namespace rcsim
