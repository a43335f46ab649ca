#include "net/inproc_transport.hpp"

#include <algorithm>
#include <cstring>

#include "net/frame.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

void InprocTransport::pair(InprocTransport& a, InprocTransport& b) {
  a.close_peer();
  b.close_peer();
  auto a_to_b = std::make_shared<Stream>();
  auto b_to_a = std::make_shared<Stream>();
  a.out_ = a_to_b;
  a.in_ = b_to_a;
  b.out_ = b_to_a;
  b.in_ = a_to_b;
  for (InprocTransport* end : {&a, &b}) {
    end->error_ = repl::LinkError::kNone;
    end->forget_partial_frame();
  }
  static metrics::Counter& inproc_pairs = metrics::counter("net.transport.inproc_pairs");
  inproc_pairs.add(1);
}

bool InprocTransport::connected() const {
  if (!in_ || !out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  return !out_->closed;
}

void InprocTransport::close_peer() {
  // Close both directions, like ::close on a socket: our sends start failing
  // immediately, the peer drains what already arrived and then sees kClosed.
  for (const auto& stream : {out_, in_}) {
    if (!stream) continue;
    std::lock_guard<std::mutex> lock(stream->mu);
    stream->closed = true;
    stream->cv.notify_all();
  }
}

bool InprocTransport::append(std::initializer_list<std::pair<const void*, std::size_t>> parts) {
  if (!out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  if (out_->closed) {
    error_ = repl::LinkError::kClosed;
    return false;
  }
  for (const auto& [data, len] : parts) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_->bytes.insert(out_->bytes.end(), p, p + len);
  }
  out_->cv.notify_all();
  return true;
}

bool InprocTransport::send_bytes(const void* bytes, std::size_t len) {
  return append({{bytes, len}});
}

bool InprocTransport::write_frame(const FrameHeader& hdr, const void* payload) {
  return append({{&hdr, sizeof hdr}, {payload, hdr.len}});
}

std::size_t InprocTransport::read_fully(void* buf, std::size_t len, const Deadline& deadline) {
  if (!in_) {
    error_ = repl::LinkError::kClosed;
    return 0;
  }
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  std::unique_lock<std::mutex> lock(in_->mu);
  while (got < len) {
    if (!in_->bytes.empty()) {
      const std::size_t take = std::min(len - got, in_->bytes.size());
      std::memcpy(p + got, in_->bytes.data(), take);
      in_->bytes.erase(in_->bytes.begin(),
                       in_->bytes.begin() + static_cast<std::ptrdiff_t>(take));
      got += take;
      continue;
    }
    if (in_->closed) {
      // Stream drained and the peer is gone: a partial frame is torn, a
      // clean boundary is EOF — both map to kClosed, as with TCP.
      error_ = repl::LinkError::kClosed;
      return got;
    }
    if (!deadline.has_value()) {
      in_->cv.wait(lock);
    } else if (in_->cv.wait_until(lock, *deadline) == std::cv_status::timeout &&
               in_->bytes.empty() && !in_->closed) {
      error_ = repl::LinkError::kTimeout;
      return got;
    }
  }
  return got;
}

}  // namespace vrep::net
