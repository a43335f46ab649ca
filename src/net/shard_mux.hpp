// Shard-id frame routing: many per-shard replication streams multiplexed
// over ONE carrier link (one TCP connection / transport between a pair of
// nodes, however many shards they exchange).
//
// Envelope: every frame's payload is prefixed with the owning shard id —
//
//   [u32 shard_id | inner payload]
//
// while the frame kind and epoch stay the inner stream's own (each shard
// keeps its private epoch, so fencing stays per-shard — exactly the
// property the shard layer exists for). No new frame kinds: a kRedoBatch is
// a kRedoBatch whichever shard it belongs to.
//
// ShardChannel wraps the carrier and demultiplexes inbound frames into
// per-shard queues; ShardChannel::lane(shard) is a repl::ReplicationLink a
// per-shard RedoPipeline/RedoApplier can use directly. A lane's recv()
// pumps the carrier until a frame for ITS shard arrives, parking frames for
// other shards in their queues along the way — so interleaved multi-shard
// traffic never drops or reorders within a shard.
//
// Single-owner: lanes are not thread-safe against each other; the caller
// (e.g. one sequencer thread per shard group, or a test) serializes access
// the same way the rest of the repl layer expects.
//
// Inbox bound: a lane whose owner never (or rarely) drains it cannot grow
// without limit under skewed traffic — parked frames are capped at
// inbox_capacity() per lane. Overflow drops the NEWEST frame for that lane
// (counted in inbox_dropped() and net.shard_mux.inbox_dropped); the lane's
// protocol engine sees an ordinary sequence gap and repairs it with an
// in-band resync, exactly as it would after a lossy carrier. The per-lane
// high-water mark is published as net.shard_mux.inbox_highwater.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "repl/link.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::net {

class ShardChannel {
 public:
  static constexpr std::size_t kEnvelopeBytes = sizeof(std::uint32_t);
  // Default parked-frame cap per lane. Generous for interleaved multi-shard
  // streams (a lane parks at most what arrives between two of its own
  // recvs), tight enough that a stalled lane stays O(capacity), not O(run).
  static constexpr std::size_t kDefaultInboxCapacity = 1024;

  explicit ShardChannel(repl::ReplicationLink* carrier) : carrier_(carrier) {
    VREP_CHECK(carrier_ != nullptr);
  }
  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  // Cap on frames parked per lane (>= 1). Applies to frames parked from now
  // on; an already-longer inbox drains normally.
  void set_inbox_capacity(std::size_t frames) {
    VREP_CHECK(frames >= 1);
    inbox_capacity_ = frames;
  }
  std::size_t inbox_capacity() const { return inbox_capacity_; }
  // Frames dropped because their lane's inbox was full.
  std::uint64_t inbox_dropped() const { return inbox_dropped_; }
  // Highest parked-frame count any lane ever reached.
  std::size_t inbox_highwater() const { return inbox_highwater_; }

  // The per-shard replication endpoint (created on first use; stable
  // addresses thereafter).
  repl::ReplicationLink& lane(std::uint32_t shard_id) {
    auto it = lanes_.find(shard_id);
    if (it == lanes_.end()) {
      it = lanes_.emplace(shard_id, std::make_unique<Lane>(this, shard_id)).first;
    }
    return *it->second;
  }

  std::size_t lanes_open() const { return lanes_.size(); }
  // Frames received for shards nobody opened a lane for (a routing bug or a
  // stale sender); they are counted and dropped rather than crashing the
  // receive loop.
  std::uint64_t unroutable() const { return unroutable_; }

 private:
  class Lane final : public repl::ReplicationLink {
   public:
    Lane(ShardChannel* channel, std::uint32_t shard_id)
        : channel_(channel), shard_id_(shard_id) {}

    bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
              std::size_t len) override {
      std::vector<std::uint8_t> wrapped(kEnvelopeBytes + len);
      std::memcpy(wrapped.data(), &shard_id_, kEnvelopeBytes);
      if (len != 0) std::memcpy(wrapped.data() + kEnvelopeBytes, payload, len);
      return channel_->carrier_->send(kind, epoch, wrapped.data(), wrapped.size());
    }

    std::optional<repl::Frame> recv(int timeout_ms) override {
      return channel_->recv_for(shard_id_, timeout_ms);
    }

    repl::LinkError last_error() const override {
      return queued_ ? repl::LinkError::kNone : channel_->carrier_->last_error();
    }
    bool connected() const override { return channel_->carrier_->connected(); }

   private:
    friend class ShardChannel;
    ShardChannel* channel_;
    std::uint32_t shard_id_;
    std::deque<repl::Frame> inbox_;
    bool queued_ = false;  // last recv was served from the inbox
  };

  std::optional<repl::Frame> recv_for(std::uint32_t shard_id, int timeout_ms) {
    Lane& self = *lanes_.at(shard_id);
    for (;;) {
      if (!self.inbox_.empty()) {
        repl::Frame frame = std::move(self.inbox_.front());
        self.inbox_.pop_front();
        self.queued_ = true;
        return frame;
      }
      self.queued_ = false;
      std::optional<repl::Frame> raw = carrier_->recv(timeout_ms);
      if (!raw) return std::nullopt;  // the lane reports the carrier's error
      if (raw->payload.size() < kEnvelopeBytes) {
        unroutable_ += 1;
        continue;
      }
      std::uint32_t target = 0;
      std::memcpy(&target, raw->payload.data(), kEnvelopeBytes);
      raw->payload.erase(raw->payload.begin(),
                         raw->payload.begin() + static_cast<std::ptrdiff_t>(kEnvelopeBytes));
      auto it = lanes_.find(target);
      if (it == lanes_.end()) {
        unroutable_ += 1;
        continue;
      }
      Lane& other = *it->second;
      if (other.inbox_.size() >= inbox_capacity_) {
        // The target lane is stalled (nobody drains it); dropping keeps the
        // carrier's memory O(lanes * capacity). The lane's stream repairs
        // the gap in-band, same as after a corrupt payload.
        inbox_dropped_ += 1;
        static metrics::Counter& inbox_dropped = metrics::counter("net.shard_mux.inbox_dropped");
        inbox_dropped.add(1);
        continue;
      }
      other.inbox_.push_back(std::move(*raw));
      if (other.inbox_.size() > inbox_highwater_) {
        inbox_highwater_ = other.inbox_.size();
        static metrics::Gauge& inbox_highwater = metrics::gauge("net.shard_mux.inbox_highwater");
        inbox_highwater.update_max(static_cast<std::int64_t>(inbox_highwater_));
      }
    }
  }

  repl::ReplicationLink* carrier_;
  std::map<std::uint32_t, std::unique_ptr<Lane>> lanes_;
  std::uint64_t unroutable_ = 0;
  std::size_t inbox_capacity_ = kDefaultInboxCapacity;
  std::uint64_t inbox_dropped_ = 0;
  std::size_t inbox_highwater_ = 0;
};

}  // namespace vrep::net
