#include "traffic/cbr.hpp"

#include <memory>

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace rcsim {

CbrSource::CbrSource(Network& net, Config cfg) : net_{net}, cfg_{cfg} {}

void CbrSource::install() {
  period_ = Time::seconds(1.0 / cfg_.packetsPerSecond);
  // Count with the same accumulation the emission times use, so the count
  // and the last time are exact (the period need not divide the window).
  for (Time t = cfg_.start; t < cfg_.stop; t += period_) ++remaining_;
  if (remaining_ == 0) return;
  nextAt_ = cfg_.start;
  nextSeq_ = net_.scheduler().reserveSequence(remaining_);
  scheduleNext();
}

void CbrSource::scheduleNext() {
  net_.scheduler().scheduleAt(nextAt_, EventKind::Traffic, nextSeq_, [this] {
    if (--remaining_ > 0) {
      nextAt_ += period_;
      ++nextSeq_;
      scheduleNext();
    }
    emitPacket();
  });
}

void CbrSource::emitPacket() {
  Packet p;
  p.id = net_.nextPacketId();
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.ttl = cfg_.ttl;
  p.sizeBytes = cfg_.packetBytes;
  p.kind = PacketKind::Data;
  p.sendTime = net_.scheduler().now();
  if (cfg_.tracePackets) p.trace = std::make_shared<std::vector<NodeId>>();
  ++sent_;
  net_.node(cfg_.src).originate(std::move(p));
}

}  // namespace rcsim
