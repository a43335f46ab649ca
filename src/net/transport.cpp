#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "net/frame.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

TcpTransport::~TcpTransport() {
  close_peer();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpTransport::close_peer() {
  if (fd_ < 0) return;
  // Lingering close. A socket closed with unread bytes in its receive queue,
  // or one the peer's bytes reach after close() (its acks for frames it has
  // not consumed yet), is answered with RST, and an RST discards everything
  // the peer has not read yet: the tail of our frames. So half-close first
  // (the peer reads all our bytes, then EOF), then read and discard until
  // the peer closes too or stays quiet, bounded so a chattering peer cannot
  // hold us here.
  constexpr int kQuietMs = 20;
  constexpr auto kMaxLinger = std::chrono::milliseconds(250);
  ::shutdown(fd_, SHUT_WR);
  const auto give_up = std::chrono::steady_clock::now() + kMaxLinger;
  std::uint8_t sink[4096];
  pollfd pfd{fd_, POLLIN, 0};
  while (std::chrono::steady_clock::now() < give_up && ::poll(&pfd, 1, kQuietMs) > 0 &&
         ::recv(fd_, sink, sizeof sink, 0) > 0) {
  }
  drop_peer();
}

void TcpTransport::drop_peer() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpTransport::listen(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) return false;
  if (::listen(listen_fd_, 1) != 0) return false;
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return false;
  port_ = ntohs(addr.sin_port);
  return true;
}

bool TcpTransport::accept_peer(int timeout_ms) {
  close_peer();  // drop any previous peer before accepting a replacement
  // One absolute deadline for the whole accept (the same pattern read_fully
  // uses): an EINTR — poll() or accept() interrupted by a signal — retries
  // against the remaining budget instead of being misreported as a timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout_ms >= 0) {
    deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  for (;;) {
    int wait_ms = -1;
    if (deadline.has_value()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            *deadline - std::chrono::steady_clock::now())
                            .count();
      wait_ms = static_cast<int>(
          std::clamp<long long>(left, 0, std::numeric_limits<int>::max()));
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) {
      error_ = Error::kTimeout;  // only a genuinely silent socket is a timeout
      return false;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = Error::kClosed;  // real poll failure, distinct from kTimeout
      return false;
    }
    fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (fd_ >= 0) break;
    // The pending connection may have been aborted between poll and accept,
    // or the accept itself interrupted; both leave the listener healthy.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
    error_ = Error::kClosed;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  error_ = Error::kNone;
  static metrics::Counter& accepts = metrics::counter("net.transport.accepts");
  accepts.add(1);
  return true;
}

bool TcpTransport::connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  close_peer();
  // Budget by wall clock, not attempt count: the old timeout_ms / 50 + 1
  // attempt loop assumed every failure was an instant ECONNREFUSED, so one
  // slow SYN (a blackholed peer sitting in the kernel's retry backoff) could
  // overshoot the caller's budget by orders of magnitude. Each attempt is a
  // NON-BLOCKING connect polled against the remaining budget — a blocking
  // ::connect() would sit in the kernel's SYN retransmit schedule for
  // minutes regardless of any deadline around the loop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    bool connected = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (!connected && (errno == EINPROGRESS || errno == EINTR)) {
      // Handshake in flight: wait for writability within the budget, then
      // read the outcome from SO_ERROR.
      for (;;) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        if (left <= 0) {
          drop_peer();
          error_ = Error::kTimeout;
          return false;
        }
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(std::clamp<long long>(
                                              left, 0, std::numeric_limits<int>::max())));
        if (ready < 0) {
          if (errno == EINTR) continue;
          drop_peer();
          error_ = Error::kClosed;
          return false;
        }
        if (ready == 0) {  // budget spent mid-handshake (blackholed peer)
          drop_peer();
          error_ = Error::kTimeout;
          return false;
        }
        int so_error = 0;
        socklen_t optlen = sizeof so_error;
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &optlen);
        connected = so_error == 0;
        break;
      }
    }
    if (connected) {
      // Back to blocking mode: send()/recv() bound themselves with poll()
      // and treat EAGAIN from the socket as a broken peer.
      const int flags = ::fcntl(fd_, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      error_ = Error::kNone;
      static metrics::Counter& connects = metrics::counter("net.transport.connects");
      connects.add(1);
      return true;
    }
    ::close(fd_);
    fd_ = -1;
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::milliseconds::zero()) break;
    // The server may not be listening yet; retry until the deadline, never
    // sleeping past it.
    const auto nap = std::min<std::chrono::microseconds>(
        std::chrono::duration_cast<std::chrono::microseconds>(left),
        std::chrono::microseconds(50'000));
    ::usleep(static_cast<unsigned>(nap.count()));
  }
  error_ = Error::kTimeout;
  return false;
}

std::vector<std::uint8_t> TcpTransport::encode_frame(MsgType type, std::uint64_t epoch,
                                                     const void* payload, std::size_t len) {
  return vrep::net::encode_frame(type, epoch, payload, len);
}

bool TcpTransport::send_bytes(const void* bytes, std::size_t len) {
  if (fd_ < 0) return false;
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t wrote = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = Error::kClosed;
      return false;
    }
    if (wrote == 0) {
      // Peer closed. errno is stale here and must not be consulted — a
      // leftover EINTR from an earlier call would spin this loop forever.
      error_ = Error::kClosed;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool TcpTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                        std::size_t len) {
  // Mirror the receive-side frame bound: hdr.len is u32, so a larger payload
  // would silently truncate and corrupt framing at the receiver. Checked
  // before any socket state so callers hit it deterministically.
  VREP_CHECK(len <= kMaxFramePayload);
  if (fd_ < 0) return false;
  FrameHeader hdr{};
  hdr.epoch = epoch;
  hdr.len = static_cast<std::uint32_t>(len);
  hdr.type = static_cast<std::uint8_t>(type);
  hdr.payload_crc = Crc32::of(payload, len);
  hdr.header_crc = frame_header_crc(hdr);
  iovec iov[2] = {{&hdr, sizeof hdr}, {const_cast<void*>(payload), len}};
  std::size_t total = sizeof hdr + len;
  std::size_t sent = 0;
  while (sent < total) {
    msghdr msg{};
    // Advance the iovec past what has been sent.
    iovec cur[2];
    int n = 0;
    std::size_t skip = sent;
    for (auto& part : iov) {
      if (skip >= part.iov_len) {
        skip -= part.iov_len;
        continue;
      }
      cur[n].iov_base = static_cast<std::uint8_t*>(part.iov_base) + skip;
      cur[n].iov_len = part.iov_len - skip;
      skip = 0;
      ++n;
    }
    msg.msg_iov = cur;
    msg.msg_iovlen = static_cast<std::size_t>(n);
    const ssize_t wrote = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = Error::kClosed;
      return false;
    }
    if (wrote == 0) {
      // Peer closed; errno is stale for a zero return (see send_bytes).
      error_ = Error::kClosed;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  static metrics::Counter& frames = metrics::counter("net.transport.frames_sent");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_sent");
  frames.add(1);
  bytes.add(total);
  return true;
}

bool TcpTransport::read_fully(void* buf, std::size_t len,
                              const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    // Budget against one absolute deadline shared by every poll of this
    // recv(): a peer trickling one byte per window can no longer restart
    // the timeout with each byte and stall the receiver forever.
    int wait_ms = -1;
    if (deadline.has_value()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            *deadline - std::chrono::steady_clock::now())
                            .count();
      // An expired budget still polls once at zero: recv(timeout_ms=0) is
      // the non-blocking ack-drain idiom and must deliver data that has
      // already arrived. Only an actually-unready socket is a timeout.
      wait_ms = static_cast<int>(
          std::clamp<long long>(left, 0, std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) {
      error_ = Error::kTimeout;
      return false;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = Error::kClosed;
      return false;
    }
    const ssize_t n = ::read(fd_, p + got, len - got);
    if (n == 0) {
      error_ = Error::kClosed;
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = Error::kClosed;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Message> TcpTransport::recv(int timeout_ms) {
  error_ = Error::kNone;
  // One overall deadline for the whole frame (header + payload); -1 waits
  // forever, as before.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout_ms >= 0) {
    deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  FrameHeader hdr;
  if (!read_fully(&hdr, sizeof hdr, deadline)) return std::nullopt;
  if (frame_header_crc(hdr) != hdr.header_crc || hdr.len > kMaxFramePayload) {
    // The length field cannot be trusted: framing is lost for good. Close so
    // the peer reconnects and the protocol layer resyncs via rejoin.
    error_ = Error::kCorrupt;
    static metrics::Counter& corrupt_headers = metrics::counter("net.transport.corrupt_headers");
    corrupt_headers.add(1);
    drop_peer();
    return std::nullopt;
  }
  Message msg;
  msg.type = static_cast<MsgType>(hdr.type);
  msg.epoch = hdr.epoch;
  msg.payload.resize(hdr.len);
  if (!read_fully(msg.payload.data(), hdr.len, deadline)) return std::nullopt;
  if (Crc32::of(msg.payload.data(), msg.payload.size()) != hdr.payload_crc) {
    // Payload bytes were consumed in full, so the stream stays aligned; the
    // receiver may skip this frame and resynchronise in-band.
    error_ = Error::kCorrupt;
    static metrics::Counter& corrupt_payloads = metrics::counter("net.transport.corrupt_payloads");
    corrupt_payloads.add(1);
    return std::nullopt;
  }
  static metrics::Counter& frames = metrics::counter("net.transport.frames_received");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_received");
  frames.add(1);
  bytes.add(sizeof hdr + msg.payload.size());
  return msg;
}

}  // namespace vrep::net
