// Framed byte-stream carriers for the redo protocol. A net::Transport is a
// repl::ReplicationLink (frames, kinds and errors are the repl types) that
// also owns a peer connection: close_peer() ends it and send_bytes() puts
// raw bytes on it. The carriers that move real bytes — TcpTransport here,
// InprocTransport in net/inproc_transport.hpp — share one StreamTransport;
// FaultInjectingTransport (net/fault_transport.hpp) decorates either. The
// frame format, its two CRCs and what a failure of each means are described
// once, in net/frame.hpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "repl/link.hpp"

namespace vrep::net {

using MsgType = repl::FrameKind;         // old spelling; perfbench is its only user
using Message = repl::Frame;             // old spelling; perfbench is its only user
using TransportError = repl::LinkError;  // old spelling; perfbench is its only user

// A replication link over one peer connection: it goes straight to
// RedoPipeline::add_peer/attach_link and RedoApplier::on_frame.
class Transport : public repl::ReplicationLink {
 public:
  virtual void close_peer() = 0;

  // Raw bytes, no framing. For fault injection and torn-frame tests only:
  // lets a decorator ship a deliberately corrupted or truncated encoded
  // frame (see net/frame.hpp) through any backend.
  virtual bool send_bytes(const void* bytes, std::size_t len) = 0;
};

// An absolute time limit; nullopt waits forever.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

// A framed byte stream. send() and recv() apply the frame rules of
// net/frame.hpp and keep the net.transport.* frame counters, once for every
// backend; a subclass only moves bytes.
class StreamTransport : public Transport {
 public:
  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) final;
  // One deadline bounds the whole frame, header and payload. A frame cut
  // short by the deadline is kept, and the next recv() resumes it.
  std::optional<repl::Frame> recv(int timeout_ms) final;
  repl::LinkError last_error() const final { return error_; }

 protected:
  // Read up to `len` bytes by `deadline` and return how many arrived. Fewer
  // than `len`: error_ says why (kTimeout, or kClosed: a torn frame looks the
  // same as EOF).
  virtual std::size_t read_fully(void* buf, std::size_t len, const Deadline& deadline) = 0;
  // Write the header and its hdr.len payload bytes as one frame. False on a
  // broken connection.
  virtual bool write_frame(const FrameHeader& hdr, const void* payload) = 0;
  // Close at once: framing is lost for good.
  virtual void drop_stream() = 0;
  // Forget a partly received frame. recv() calls it when the stream closes
  // or its framing is lost; a subclass calls it where it replaces or drops
  // the byte stream (TcpTransport::drop_stream, which close_peer,
  // accept_peer and connect_to go through; InprocTransport::pair).
  void forget_partial_frame() { partial_bytes_ = 0; }

  repl::LinkError error_ = repl::LinkError::kNone;

 private:
  // The frame being received: partial_bytes_ counts the bytes of its header,
  // then of its payload, that have arrived.
  FrameHeader header_{};
  std::vector<std::uint8_t> payload_;
  std::size_t partial_bytes_ = 0;
};

// Blocking, single-peer TCP transport. Deliberately minimal: the examples
// and integration tests run primary and backup as two local processes.
class TcpTransport final : public StreamTransport {
 public:
  TcpTransport() = default;
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Server side: bind/listen on 127.0.0.1:port (port 0 = ephemeral; see
  // bound_port()), then accept exactly one peer. accept_peer() may be called
  // again after the peer connection is lost to accept a replacement.
  bool listen(std::uint16_t port);
  std::uint16_t bound_port() const { return port_; }
  bool accept_peer(int timeout_ms = 10'000);

  // Client side.
  bool connect_to(const std::string& host, std::uint16_t port, int timeout_ms = 10'000);

  bool connected() const override { return fd_ >= 0; }
  // Lingering close: the peer still reads every byte we sent. Returns once
  // the peer has closed too or stayed quiet for 20 ms, within 250 ms.
  void close_peer() override;
  bool send_bytes(const void* bytes, std::size_t len) override;

 private:
  // Polls against the one deadline, so a peer trickling one byte per window
  // cannot restart the budget with each byte.
  std::size_t read_fully(void* buf, std::size_t len, const Deadline& deadline) override;
  bool write_frame(const FrameHeader& hdr, const void* payload) override;
  // Close at once, without close_peer()'s linger: for a connect that never
  // completed (its deadline must hold) or a stream whose framing is lost.
  void drop_stream() override;

  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace vrep::net
