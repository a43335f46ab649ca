// A repl::ReplicationLink that forwards to a net::Transport. A Transport is
// a ReplicationLink itself, so the library passes transports directly;
// perfbench is this forwarder's only user.
#pragma once

#include "net/transport.hpp"

namespace vrep::net {

class TransportLink final : public repl::ReplicationLink {
 public:
  explicit TransportLink(Transport* transport) : transport_(transport) {}

  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    return transport_->send(kind, epoch, payload, len);
  }
  std::optional<repl::Frame> recv(int timeout_ms) override { return transport_->recv(timeout_ms); }
  repl::LinkError last_error() const override { return transport_->last_error(); }
  bool connected() const override { return transport_->connected(); }

 private:
  Transport* transport_;
};

}  // namespace vrep::net
