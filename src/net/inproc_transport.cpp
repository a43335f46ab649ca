#include "net/inproc_transport.hpp"

#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "util/crc32.hpp"
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
  a.error_ = TransportError::kNone;
  b.error_ = TransportError::kNone;
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

bool InprocTransport::send_bytes(const void* bytes, std::size_t len) {
  if (!out_) return false;
  std::lock_guard<std::mutex> lock(out_->mu);
  if (out_->closed) {
    error_ = TransportError::kClosed;
    return false;
  }
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  out_->bytes.insert(out_->bytes.end(), p, p + len);
  out_->cv.notify_all();
  return true;
}

bool InprocTransport::send(MsgType type, std::uint64_t epoch, const void* payload,
                           std::size_t len) {
  const auto frame = encode_frame(type, epoch, payload, len);
  if (!send_bytes(frame.data(), frame.size())) return false;
  static metrics::Counter& frames = metrics::counter("net.transport.frames_sent");
  static metrics::Counter& bytes = metrics::counter("net.transport.bytes_sent");
  frames.add(1);
  bytes.add(frame.size());
  return true;
}

bool InprocTransport::read_fully(void* buf, std::size_t len, int timeout_ms) {
  if (!in_) {
    error_ = TransportError::kClosed;
    return false;
  }
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  std::unique_lock<std::mutex> lock(in_->mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
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
      error_ = TransportError::kClosed;
      return false;
    }
    if (timeout_ms < 0) {
      in_->cv.wait(lock);
    } else if (in_->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
               in_->bytes.empty() && !in_->closed) {
      error_ = TransportError::kTimeout;
      return false;
    }
  }
  return true;
}

std::optional<Message> InprocTransport::recv(int timeout_ms) {
  error_ = TransportError::kNone;
  FrameHeader hdr;
  if (!read_fully(&hdr, sizeof hdr, timeout_ms)) return std::nullopt;
  if (frame_header_crc(hdr) != hdr.header_crc || hdr.len > kMaxFramePayload) {
    // Same rule as TcpTransport: the length field cannot be trusted, framing
    // is lost for good. Close so the protocol layer resyncs via rejoin.
    error_ = TransportError::kCorrupt;
    static metrics::Counter& corrupt_headers = metrics::counter("net.transport.corrupt_headers");
    corrupt_headers.add(1);
    close_peer();
    return std::nullopt;
  }
  Message msg;
  msg.type = static_cast<MsgType>(hdr.type);
  msg.epoch = hdr.epoch;
  msg.payload.resize(hdr.len);
  if (!read_fully(msg.payload.data(), hdr.len, timeout_ms)) return std::nullopt;
  if (Crc32::of(msg.payload.data(), msg.payload.size()) != hdr.payload_crc) {
    // Payload consumed in full: the stream stays aligned, skip in-band.
    error_ = TransportError::kCorrupt;
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
