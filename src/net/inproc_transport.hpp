// In-process loopback transport: a framed byte stream between two threads.
//
// Two InprocTransport endpoints are cross-wired by pair(); each direction is
// a mutex/condvar-protected byte stream carrying the exact encoded frame
// bytes of net/frame.hpp. Shipping *bytes* rather than decoded messages is
// deliberate: InprocTransport is a StreamTransport like TcpTransport, so the
// same send()/recv() code frames and parses both, and fault injection
// (bit-flips, torn frames via send_bytes) and the corrupt/closed error
// semantics are shared code, not a copy — only the copy through a socket is
// elided. What is this backend's own:
//   * close_peer() closes both directions; the peer drains buffered bytes,
//     then sees kClosed (like TCP delivering queued data before EOF).
//   * a header-CRC failure closes both directions too.
//   * every finite timeout, zero included, waits on the condvar until the
//     frame's deadline.
//
// Useful for single-process failover tests and the cross-backend conformance
// suite, where spawning real sockets adds latency and flakiness for no
// coverage.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/transport.hpp"

namespace vrep::net {

class InprocTransport final : public StreamTransport {
 public:
  InprocTransport() = default;
  ~InprocTransport() override { close_peer(); }
  InprocTransport(const InprocTransport&) = delete;
  InprocTransport& operator=(const InprocTransport&) = delete;

  // Cross-wire two endpoints (a's sends become b's receives and vice versa).
  // Re-pairing closed endpoints models a reconnect.
  static void pair(InprocTransport& a, InprocTransport& b);

  bool send_bytes(const void* bytes, std::size_t len) override;
  bool connected() const override;
  void close_peer() override;

 private:
  struct Stream {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint8_t> bytes;
    bool closed = false;
  };

  std::size_t read_fully(void* buf, std::size_t len, const Deadline& deadline) override;
  bool write_frame(const FrameHeader& hdr, const void* payload) override;
  void drop_stream() override { close_peer(); }
  // Append `parts` to out_ under one lock, so a reader never sees part of
  // them. False (kClosed) once the stream is closed.
  bool append(std::initializer_list<std::pair<const void*, std::size_t>> parts);

  std::shared_ptr<Stream> in_;   // peer writes, we read
  std::shared_ptr<Stream> out_;  // we write, peer reads
};

}  // namespace vrep::net
