#include "net/fault_transport.hpp"

#include <unistd.h>

#include "net/frame.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

FaultInjectingTransport::Fault FaultInjectingTransport::roll() {
  // One uniform draw per frame, carved into cumulative bands so the schedule
  // is a pure function of (seed, frame index) and at most one fault fires.
  const double r = rng_.next_double();
  double acc = plan_.drop;
  if (r < acc) return Fault::kDrop;
  acc += plan_.delay;
  if (r < acc) return Fault::kDelay;
  acc += plan_.duplicate;
  if (r < acc) return Fault::kDuplicate;
  acc += plan_.bitflip;
  if (r < acc) return Fault::kBitflip;
  acc += plan_.truncate;
  if (r < acc) return Fault::kTruncate;
  acc += plan_.disconnect;
  if (r < acc) return Fault::kDisconnect;
  return Fault::kNone;
}

bool FaultInjectingTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                                   std::size_t len) {
  stats_.frames++;
  // Draw even during the grace period so the schedule downstream of it does
  // not depend on how many handshake frames preceded it... it does anyway
  // (frame counts shift), but every frame consuming exactly one draw keeps
  // the mapping easy to reason about when replaying a seed.
  const Fault fault = roll();
  if (stats_.frames <= static_cast<std::uint64_t>(plan_.start_after_frames) ||
      fault == Fault::kNone) {
    return inner_->send(type, epoch, payload, len);
  }
  // Every fault also bumps its net.fault.* mirror in the process-wide
  // registry, so chaos runs show up in --json snapshots.
  switch (fault) {
    case Fault::kDrop: {
      static metrics::Counter& drops = metrics::counter("net.fault.drops");
      stats_.drops++;
      drops.add(1);
      return true;  // swallowed: the sender believes it went out
    }
    case Fault::kDelay: {
      static metrics::Counter& delays = metrics::counter("net.fault.delays");
      stats_.delays++;
      delays.add(1);
      const auto us = static_cast<useconds_t>(
          rng_.below(static_cast<std::uint64_t>(plan_.max_delay_us) + 1));
      ::usleep(us);
      return inner_->send(type, epoch, payload, len);
    }
    case Fault::kDuplicate: {
      static metrics::Counter& duplicates = metrics::counter("net.fault.duplicates");
      stats_.duplicates++;
      duplicates.add(1);
      if (!inner_->send(type, epoch, payload, len)) return false;
      return inner_->send(type, epoch, payload, len);
    }
    case Fault::kBitflip: {
      static metrics::Counter& bitflips = metrics::counter("net.fault.bitflips");
      stats_.bitflips++;
      bitflips.add(1);
      auto frame = encode_frame(type, epoch, payload, len);
      const std::uint64_t bit = rng_.below(frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      return inner_->send_bytes(frame.data(), frame.size());
    }
    case Fault::kTruncate: {
      // Torn frame: ship a strict prefix, then die mid-stream. The receiver
      // must report kClosed (or kCorrupt) without applying the partial batch.
      static metrics::Counter& truncations = metrics::counter("net.fault.truncations");
      stats_.truncations++;
      truncations.add(1);
      const auto frame = encode_frame(type, epoch, payload, len);
      const std::size_t cut = 1 + rng_.below(frame.size() - 1);
      inner_->send_bytes(frame.data(), cut);
      inner_->close_peer();
      return false;
    }
    case Fault::kDisconnect: {
      static metrics::Counter& disconnects = metrics::counter("net.fault.disconnects");
      stats_.disconnects++;
      disconnects.add(1);
      inner_->close_peer();
      return false;
    }
    case Fault::kNone:
      break;
  }
  return inner_->send(type, epoch, payload, len);
}

}  // namespace vrep::net
