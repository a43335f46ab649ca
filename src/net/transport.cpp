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
#include "util/metrics.hpp"

namespace vrep::net {

namespace {

// timeout_ms from now; a negative timeout never expires.
Deadline deadline_after(int timeout_ms) {
  if (timeout_ms < 0) return std::nullopt;
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
}

// The poll() timeout left before `deadline`: -1 without one, 0 once it has
// passed.
int poll_ms(const Deadline& deadline) {
  if (!deadline.has_value()) return -1;
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                        *deadline - std::chrono::steady_clock::now())
                        .count();
  return static_cast<int>(std::clamp<long long>(left, 0, std::numeric_limits<int>::max()));
}

}  // namespace

bool StreamTransport::send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
                           std::size_t len) {
  // Built (and the payload bound CHECKed) before any stream state, so
  // callers hit the bound deterministically.
  const FrameHeader hdr = make_frame_header(kind, epoch, payload, len);
  if (!write_frame(hdr, payload)) return false;
  static metrics::Counter& frames = metrics::counter("net.transport.frames_sent");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_sent");
  frames.add(1);
  bytes.add(sizeof hdr + len);
  return true;
}

std::optional<repl::Frame> StreamTransport::recv(int timeout_ms) {
  error_ = repl::LinkError::kNone;
  const Deadline deadline = deadline_after(timeout_ms);
  // Fills one part of the frame (`len` bytes at frame offset `offset`: the
  // header, then the payload) from where partial_bytes_ says the last recv()
  // stopped. On a timeout what arrived is kept for the next recv(); on a
  // closed stream it is forgotten.
  const auto read_part = [&](void* base, std::size_t offset, std::size_t len) {
    const std::size_t have = partial_bytes_ - offset;
    partial_bytes_ += read_fully(static_cast<std::uint8_t*>(base) + have, len - have, deadline);
    if (partial_bytes_ == offset + len) return true;
    if (error_ != repl::LinkError::kTimeout) forget_partial_frame();
    return false;
  };
  if (partial_bytes_ < sizeof header_) {
    if (!read_part(&header_, 0, sizeof header_)) return std::nullopt;
    if (!frame_header_ok(header_)) {
      // Framing is lost for good. Close so the peer reconnects and the
      // protocol layer resyncs via rejoin.
      error_ = repl::LinkError::kCorrupt;
      static metrics::Counter& corrupt_headers = metrics::counter("net.transport.corrupt_headers");
      corrupt_headers.add(1);
      forget_partial_frame();
      drop_stream();
      return std::nullopt;
    }
    payload_.resize(header_.len);
  }
  if (!read_part(payload_.data(), sizeof header_, header_.len)) return std::nullopt;
  forget_partial_frame();
  if (!frame_payload_ok(header_, payload_.data())) {
    // Payload consumed in full: the stream stays aligned, skip in-band.
    error_ = repl::LinkError::kCorrupt;
    static metrics::Counter& corrupt_payloads = metrics::counter("net.transport.corrupt_payloads");
    corrupt_payloads.add(1);
    return std::nullopt;
  }
  static metrics::Counter& frames = metrics::counter("net.transport.frames_received");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_received");
  frames.add(1);
  bytes.add(sizeof header_ + header_.len);
  return repl::Frame{static_cast<repl::FrameKind>(header_.type), header_.epoch,
                     std::move(payload_)};
}

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
  drop_stream();
}

void TcpTransport::drop_stream() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  forget_partial_frame();
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
  const Deadline deadline = deadline_after(timeout_ms);
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_ms(deadline));
    if (ready == 0) {
      error_ = repl::LinkError::kTimeout;  // only a genuinely silent socket is a timeout
      return false;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = repl::LinkError::kClosed;  // real poll failure, distinct from kTimeout
      return false;
    }
    fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (fd_ >= 0) break;
    // The pending connection may have been aborted between poll and accept,
    // or the accept itself interrupted; both leave the listener healthy.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
    error_ = repl::LinkError::kClosed;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  error_ = repl::LinkError::kNone;
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
        const int wait_ms = poll_ms(deadline);
        if (wait_ms == 0) {
          drop_stream();
          error_ = repl::LinkError::kTimeout;
          return false;
        }
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0) {
          if (errno == EINTR) continue;
          drop_stream();
          error_ = repl::LinkError::kClosed;
          return false;
        }
        if (ready == 0) {  // budget spent mid-handshake (blackholed peer)
          drop_stream();
          error_ = repl::LinkError::kTimeout;
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
      error_ = repl::LinkError::kNone;
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
  error_ = repl::LinkError::kTimeout;
  return false;
}

bool TcpTransport::send_bytes(const void* bytes, std::size_t len) {
  if (fd_ < 0) return false;
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t wrote = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = repl::LinkError::kClosed;
      return false;
    }
    if (wrote == 0) {
      // Peer closed. errno is stale here and must not be consulted — a
      // leftover EINTR from an earlier call would spin this loop forever.
      error_ = repl::LinkError::kClosed;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool TcpTransport::write_frame(const FrameHeader& hdr, const void* payload) {
  if (fd_ < 0) return false;
  iovec iov[2] = {{const_cast<FrameHeader*>(&hdr), sizeof hdr},
                  {const_cast<void*>(payload), hdr.len}};
  const std::size_t total = sizeof hdr + hdr.len;
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
      error_ = repl::LinkError::kClosed;
      return false;
    }
    if (wrote == 0) {
      // Peer closed; errno is stale for a zero return (see send_bytes).
      error_ = repl::LinkError::kClosed;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

std::size_t TcpTransport::read_fully(void* buf, std::size_t len, const Deadline& deadline) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    // An expired budget still polls once at zero: recv(timeout_ms=0) is the
    // non-blocking ack-drain idiom and must deliver data that has already
    // arrived. Only an actually-unready socket is a timeout.
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_ms(deadline));
    if (ready == 0) {
      error_ = repl::LinkError::kTimeout;
      return got;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = repl::LinkError::kClosed;
      return got;
    }
    const ssize_t n = ::read(fd_, p + got, len - got);
    if (n == 0) {
      error_ = repl::LinkError::kClosed;
      return got;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = repl::LinkError::kClosed;
      return got;
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace vrep::net
