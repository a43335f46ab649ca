// Active replication over the TCP transport: the same redo-shipping design
// as repl/active.hpp, but between two real processes on wall-clock time.
// Used by the bank_failover example, the chaos soak and the integration
// tests.
//
// All protocol logic — sequencing, batching, the bounded redo history,
// rejoin/delta-vs-full-image decisions, epoch fencing, 1-safe/2-safe commit
// modes — lives in repl::RedoPipeline / repl::RedoApplier (repl/pipeline.hpp).
// This file is pure composition: it binds the engine to a local Version 3
// store (primary, through repl::PrimaryStore) or a replica arena (backup)
// and to net::Transports, which are repl::ReplicationLinks themselves.
//
// Frame payloads (all frames CRC-protected and epoch-stamped by the
// transport; kinds in repl/link.hpp):
//   kHello         u64 db_size | u64 committed_seq     (primary -> backup)
//   kDbChunk       u64 offset  | bytes                 full image transfer
//   kRedoBatch     u64 seq | { u32 db_off, u32 len, bytes }*  one transaction
//   kRedoGroup     u32 count | { u32 len, kRedoBatch payload }*  group commit
//   kHeartbeat     u64 committed_seq
//   kConsumerAck   u64 applied_seq                     (backup -> primary)
//   kRejoinRequest u64 last_applied_seq | u64 node_id | u64 state_epoch
//                                                      (backup -> primary)
//   kRejoinDelta   u64 from_seq | u64 batch_count      (primary -> backup)
//   kEpochFence    u64 current_epoch                   (either -> stale peer)
//   kCkptBegin     u64 watermark_seq | u64 db_size | u32 image_crc | u32 chunks
//                                                      (primary -> backup)
//   kCkptChunk     u64 offset | bytes                  checkpoint page run
//   kCkptEnd       u64 watermark_seq | u32 image_crc   install commit point
//
// 1-safety: commit returns after the local commit; the batch send is not
// awaited. A primary crash can lose the trailing transactions, but a batch
// frame is applied atomically (framing + CRC), so the backup never holds a
// torn transaction. set_two_safe(true) upgrades commits to wait for the
// backup's covering acknowledgment.
//
// Fault tolerance on top of the 1-safe stream: epoch fencing (split-brain
// defense), in-band resync of dropped/corrupt batches from the redo
// history, and reconnect + rejoin (delta or full image) — see
// repl/pipeline.hpp for the rules, README "Failover, fencing, and chaos
// testing" for the story.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "cluster/failure_detector.hpp"
#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "net/transport.hpp"
#include "repl/pipeline.hpp"
#include "repl/primary_store.hpp"
#include "rio/arena.hpp"
#include "sim/mem_bus.hpp"

namespace vrep::net {

// Owns the pass-through bus a WirePrimary's local store runs on. A base
// class so the bus is constructed before repl::PrimaryStore builds the
// store over it.
struct PassThroughBus {
  sim::MemBus owned_bus;
};

// The active primary over real transports: a repl::PrimaryStore (local V3
// store + RedoPipeline) whose pipeline peers are net::Transports.
class WirePrimary final : private PassThroughBus, public repl::PrimaryStore {
 public:
  // The local store runs Version 3 on a pass-through bus over `arena`.
  // `format=false` attaches to existing state (e.g. an arena a promoted
  // backup built via WireBackup::promote) — call recover() afterwards.
  // With a `membership`, outgoing frames carry its epoch and stale inbound
  // traffic is fenced; without one, everything runs in a fixed epoch 1.
  WirePrimary(rio::Arena& arena, const core::StoreConfig& config, Transport* transport,
              bool format, cluster::Membership* membership = nullptr,
              Lineage lineage = Lineage{0, 0},
              std::size_t redo_history_bytes = kDefaultRedoHistoryBytes);

  // Ship the current database image + sequence so (fresh) backups can join.
  bool sync_backup() { return pipeline().sync_backup(); }

  // Attach another backup over its own transport; returns the pipeline peer
  // index (the constructor's transport is peer 0).
  std::size_t add_backup(Transport* transport) { return pipeline().add_peer(transport); }

  // Await a backup's kRejoinRequest on `peer` after a (re)connect and serve
  // it: a kRejoinDelta replay from the redo history when the gap is
  // servable, a full image sync otherwise. Returns false on
  // timeout/disconnect or if this primary has been fenced.
  bool handle_rejoin(std::size_t peer, int timeout_ms) {
    return pipeline().handle_rejoin(peer, timeout_ms);
  }

  // Point a peer at a new transport after a reconnect (same or different
  // object).
  void attach_transport(std::size_t peer, Transport* transport) {
    pipeline().attach_link(peer, transport);
  }

  bool send_heartbeat() { return pipeline().send_heartbeat(); }
  bool connection_alive() const { return pipeline().connection_alive(); }
  // Highest applied sequence any backup has acknowledged (drained on
  // commit); per-peer watermarks via peer_acked_seq().
  std::uint64_t backup_acked_seq() const { return pipeline().backup_acked_seq(); }
  std::uint64_t quorum_acked_seq() const { return pipeline().quorum_acked_seq(); }
  std::size_t peer_count() const { return pipeline().peer_count(); }
  bool peer_alive(std::size_t peer) const { return pipeline().peer_alive(peer); }
  std::uint64_t peer_acked_seq(std::size_t peer) const {
    return pipeline().peer_acked_seq(peer);
  }
};

// Backup-side replica state: a database image plus the applied sequence.
// The protocol state machine is repl::RedoApplier; this class supplies the
// arena as the apply target and runs the receive loop.
class WireBackup : private repl::RedoApplier::Target {
 public:
  using Stats = repl::RedoApplier::Stats;

  // `arena` must hold at least the hello'd db_size bytes (file-backed in the
  // failover example so the image survives the process). With a
  // `membership`, stale-epoch frames are fenced and the epoch follows the
  // primary's hello/delta frames; `node_id` identifies this node in rejoin
  // requests so the primary can adopt it into the view.
  explicit WireBackup(rio::Arena& arena, cluster::Membership* membership = nullptr,
                      std::uint64_t node_id = 1)
      : arena_(&arena), applier_(*this, membership, node_id) {}

  enum class ServeResult {
    kPrimaryFailed,   // sustained silence: declare the primary dead, take over
    kConnectionLost,  // socket closed or framing lost: reconnect + rejoin
    kCorrupt,         // unrecoverable protocol violation (should not happen)
  };

  struct ServeOptions {
    // recv granularity; without a detector, also the silence budget after
    // which the primary is declared failed.
    int idle_timeout_ms = 500;
    // Optional debounce: silence only fails the primary once the detector's
    // missed-interval threshold trips (fed from every received frame).
    cluster::HeartbeatDetector* detector = nullptr;
  };

  // Receive and apply until the primary fails, the connection drops, or the
  // stream is irrecoverably violated.
  ServeResult serve(Transport& transport, const ServeOptions& options);
  // Legacy spelling: idle timeout only, no detector.
  ServeResult serve(Transport& transport, int timeout_ms) {
    ServeOptions options;
    options.idle_timeout_ms = timeout_ms;
    return serve(transport, options);
  }

  // Announce our applied sequence after a (re)connect; the primary answers
  // with a delta replay or a full image sync. A fresh backup (nothing
  // applied, no image) asks from sequence 0, which always yields the image.
  bool request_rejoin(Transport& transport) { return applier_.request_rejoin(transport); }

  // Seed the replica from an existing database image (e.g. a demoted
  // primary rejoining with its own last state), so rejoin can catch up
  // incrementally instead of re-shipping the whole database. `state_epoch`
  // is the epoch under which that state was produced — the primary uses it
  // to decide whether a delta is safe.
  void seed(const std::uint8_t* db, std::size_t size, std::uint64_t applied_seq,
            std::uint64_t state_epoch) {
    applier_.seed(db, size, applied_seq, state_epoch);
  }

  // Protocol engine (shared with the simulated backend) — direct access for
  // tests, drivers and in-doubt resolution at takeover.
  repl::RedoApplier& applier() { return applier_; }

  // ---- thread-safe snapshot reads ----------------------------------------
  // serve() applies each frame under the same lock these take, so a read
  // observes whole batches only: a prefix-consistent snapshot at the
  // returned at_seq (see RedoApplier::read_at_watermark for the
  // read-your-writes min_seq contract). The unlocked accessors below remain
  // quiesced-only (serve() stopped or same thread).
  repl::RedoApplier::ReadResult read(std::uint64_t off, std::uint32_t len,
                                     std::uint64_t min_seq, std::uint8_t* out) const {
    std::lock_guard<std::mutex> lock(apply_mu_);
    return applier_.read_at_watermark(off, len, min_seq, out);
  }
  // The applied watermark as the reading side sees it (lock-synchronised
  // with serve()'s applies).
  std::uint64_t watermark() const {
    std::lock_guard<std::mutex> lock(apply_mu_);
    return applier_.applied_seq();
  }

  std::uint64_t applied_seq() const { return applier_.applied_seq(); }
  // Epoch under which the last applied state (image or batch) was produced.
  std::uint64_t state_epoch() const { return applier_.state_epoch(); }
  std::size_t db_size() const { return applier_.db_size(); }
  const std::uint8_t* db() const { return arena_->data(); }
  const Stats& stats() const { return applier_.stats(); }

  // Promote to a standalone primary: build a fresh Version 3 store in
  // `new_arena` seeded with the replica's database image. The store
  // continues the primary's sequence numbering (so a later rejoin of the
  // old primary can be served incrementally).
  std::unique_ptr<core::TransactionStore> promote(sim::MemBus& bus, rio::Arena& new_arena,
                                                  const core::StoreConfig& config);

 private:
  // RedoApplier::Target: replica bytes land straight in the arena.
  void write(std::uint64_t off, const void* src, std::size_t len) override;
  std::size_t capacity() const override { return arena_->size(); }
  const std::uint8_t* data() const override { return arena_->data(); }

  rio::Arena* arena_;
  repl::RedoApplier applier_;
  // Serializes serve()'s per-frame applies against read()/watermark().
  mutable std::mutex apply_mu_;
};

}  // namespace vrep::net
