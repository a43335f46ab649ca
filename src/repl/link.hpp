// Transport-agnostic replication link.
//
// The active scheme is ONE protocol — a sequenced, checksummed redo stream
// with flow control, rejoin and epoch fencing — that this repo runs over
// several carriers, each a `ReplicationLink`:
//   * McRingLink (repl/mc_ring_link.hpp) — the simulated Memory Channel ring
//     (virtual time);
//   * every net::Transport (net/transport.hpp): TcpTransport, a framed TCP
//     byte stream between two processes; InprocTransport, the same framed
//     stream between two threads; FaultInjectingTransport, a seeded chaos
//     decorator over either;
//   * InlineLink (shard/sharded_cluster.cpp) — synchronous in-process
//     delivery for the deterministic sharded cluster.
// QueueLink (below) is the reply direction of McRingLink and InlineLink.
// `ReplicationLink` is the seam between the protocol engine
// (`repl/pipeline.hpp`) and those carriers: a frame is the unit of atomic,
// CRC-protected, epoch-stamped delivery, and everything below it (byte
// framing, ring entry packing, write-buffer coalescing, virtual-time cost
// charging, socket plumbing) is the backend's private business.
//
// Contract every backend provides:
//   * send() delivers the frame whole or not at all, applying backpressure
//     however the carrier does (the sim ring blocks the virtual-time CPU
//     until the consumer cursor advances; TCP blocks in the socket; the
//     loopback blocks on a condition variable). Returns false only when the
//     peer is unreachable (the frame may or may not have been lost).
//   * recv() returns the next frame, nullopt on timeout / broken stream /
//     corrupt frame — distinguished via last_error(). kTimeout means nothing
//     was lost: the stream is aligned, and a frame that was partly received
//     when the time ran out is resumed by the next recv(). A kCorrupt with
//     connected() still true means the stream is aligned and the frame was
//     skipped in place; kCorrupt with connected() false (or kClosed) means
//     framing is lost and recovery is reconnect + rejoin.
//   * Every frame carries the sender's membership epoch so the engine can
//     fence stale-epoch traffic (split-brain defense) without knowing what
//     the carrier is.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace vrep::repl {

// Frame kinds, shared by every backend. The value is the wire type byte of
// net/frame.hpp.
enum class FrameKind : std::uint8_t {
  kRedoBatch = 1,      // one committed transaction's redo chunks
  kHeartbeat = 2,      // primary liveness + committed sequence
  kConsumerAck = 3,    // backup's applied sequence (flow control / monitoring)
  kHello = 4,          // full-sync handshake: db size, starting state
  kDbChunk = 5,        // database image transfer
  kRejoinRequest = 6,  // backup -> primary: last applied seq, node, state epoch
  kRejoinDelta = 7,    // primary -> backup: u64 from_seq | u64 batch count
  kEpochFence = 8,     // receiver -> stale sender: u64 current epoch
  kRedoGroup = 9,      // group commit: several contiguous kRedoBatch payloads
  kCkptBegin = 10,     // checkpoint install start: watermark + image geometry
  kCkptChunk = 11,     // checkpoint page run: u64 offset | bytes
  kCkptEnd = 12,       // checkpoint install end: watermark seq + full-image crc
  kXPrepare = 13,      // 2PC phase 1: u64 xid | staged redo batch (in-doubt)
  kXDecide = 14,       // 2PC phase 2: u64 xid | u8 commit (1) / abort (0)
  // Client <-> net::AsyncServer frames; the redo protocol never sends them.
  kClientCommit = 15,  // client -> server: u64 op_id | u64 key | op bytes
  kCommitReply = 16,   // server -> client: u64 op_id | u64 seq | u8 outcome
  kReadRequest = 17,   // client -> server: u64 op_id | u64 key | u64 off |
                       //                   u32 len | u64 min_seq
  kReadReply = 18,     // server -> client: u64 op_id | u64 at_seq | u8 status
                       //                   | data bytes (kOk only)
};

struct Frame {
  FrameKind kind;
  std::uint64_t epoch;
  std::vector<std::uint8_t> payload;
};

enum class LinkError : std::uint8_t { kNone, kTimeout, kClosed, kCorrupt };

class ReplicationLink {
 public:
  virtual ~ReplicationLink() = default;

  // Send one frame stamped with `epoch`. Blocks under carrier backpressure.
  // Returns false on a broken connection.
  virtual bool send(FrameKind kind, std::uint64_t epoch, const void* payload,
                    std::size_t len) = 0;

  // Receive the next frame, waiting up to timeout_ms (0 = poll, -1 = until
  // the carrier can prove nothing further will arrive).
  virtual std::optional<Frame> recv(int timeout_ms) = 0;

  virtual LinkError last_error() const = 0;
  virtual bool connected() const = 0;

  // Push boundary: force everything accepted by send() onto the carrier
  // (drain coalescing write buffers, flush socket buffers). Used by 2-safe
  // commits before waiting for the covering acknowledgment.
  virtual void flush() {}

  // Cumulative nanoseconds this link has blocked its sender awaiting
  // acknowledgments — VIRTUAL time on co-simulated carriers (so metrics
  // derived from it stay byte-stable run to run). Wall-clock transports
  // return nullopt and the engine falls back to measuring wall time.
  virtual std::optional<std::uint64_t> blocked_wait_ns() const { return std::nullopt; }
};

// The reply direction of an in-process carrier: send() appends the frame to
// the carrier's inbound queue for the primary's next recv(); nothing is ever
// received this way. While `*down` is set (the carrier was killed), sends
// fail and the link reports disconnected; without a flag it never goes down.
class QueueLink final : public ReplicationLink {
 public:
  explicit QueueLink(std::deque<Frame>* queue, const bool* down = nullptr)
      : queue_(queue), down_(down) {}

  bool send(FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    if (!connected()) return false;
    const auto* p = static_cast<const std::uint8_t*>(payload);
    queue_->push_back(Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
    return true;
  }
  std::optional<Frame> recv(int) override { return std::nullopt; }
  LinkError last_error() const override { return LinkError::kTimeout; }
  bool connected() const override { return down_ == nullptr || !*down_; }

 private:
  std::deque<Frame>* queue_;
  const bool* down_;
};

}  // namespace vrep::repl
