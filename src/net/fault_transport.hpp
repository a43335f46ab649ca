// Fault-injecting decorator over any Transport (TCP or in-process loopback).
//
// Wraps the sender side of a connection and perturbs outgoing frames on a
// deterministic seeded schedule: drop, delay, duplicate, bit-flip, truncate
// (torn frame + forced disconnect) and spontaneous disconnects. The fault
// *choice* sequence depends only on the seed and the frame count, so a
// chaos run is reproducible; wall-clock delays merely shift timing.
//
// Faults map onto the recovery machinery they are meant to exercise:
//   drop       -> backup sees a sequence gap, resyncs in-band (kRejoinRequest)
//   duplicate  -> backup ignores already-applied sequences
//   bit-flip   -> payload CRC skip + in-band resync, or header CRC + reconnect
//   truncate   -> torn frame: receiver reports kClosed, never applies a
//                 partial batch; sender reconnects with backoff and rejoins
//   disconnect -> reconnect with backoff + rejoin
#pragma once

#include "net/transport.hpp"
#include "util/rng.hpp"

namespace vrep::net {

struct FaultPlan {
  std::uint64_t seed = 1;
  // Per-frame probabilities; at most one fault fires per frame.
  double drop = 0.0;
  double delay = 0.0;
  double duplicate = 0.0;
  double bitflip = 0.0;
  double truncate = 0.0;
  double disconnect = 0.0;
  int max_delay_us = 2000;  // delay fault sleeps uniformly in [0, max_delay_us]
  // Let this many frames through untouched first (handshake grace period).
  int start_after_frames = 0;
};

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner, const FaultPlan& plan)
      : inner_(&inner), plan_(plan), rng_(plan.seed) {}

  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t bitflips = 0;
    std::uint64_t truncations = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t faults() const {
      return drops + delays + duplicates + bitflips + truncations + disconnects;
    }
  };

  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  std::optional<repl::Frame> recv(int timeout_ms) override { return inner_->recv(timeout_ms); }
  repl::LinkError last_error() const override { return inner_->last_error(); }
  bool connected() const override { return inner_->connected(); }
  void close_peer() override { inner_->close_peer(); }
  bool send_bytes(const void* bytes, std::size_t len) override {
    return inner_->send_bytes(bytes, len);
  }

  const Stats& stats() const { return stats_; }
  Transport& inner() { return *inner_; }

 private:
  enum class Fault { kNone, kDrop, kDelay, kDuplicate, kBitflip, kTruncate, kDisconnect };
  Fault roll();

  Transport* inner_;
  FaultPlan plan_;
  Rng rng_;
  Stats stats_;
};

}  // namespace vrep::net
