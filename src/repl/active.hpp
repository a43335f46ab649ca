// Active primary-backup (paper Section 6).
//
// The primary runs the best local scheme (Version 3) for its own
// recoverability, captures the bytes each transaction modifies, and at
// commit ships them — redo data only, no undo log, no mirror — through a
// circular buffer in write-through memory (see redo_ring.hpp for the wire
// format). The backup CPU applies the entries to its own database copy and
// writes its consumer cursor back; the primary blocks only if the ring
// fills.
//
// Protocol logic (sequencing, batch encoding, epoch fencing, 1-safe/2-safe
// commits, rejoin decisions) lives in repl::RedoPipeline / repl::RedoApplier
// (pipeline.hpp) — the same engine the TCP and loopback deployments use.
// This file supplies the simulated Memory Channel specifics: ActivePrimary
// is a PrimaryStore (primary_store.hpp) over McRingLinks (mc_ring_link.hpp),
// and ActiveBackup decodes the ring wire format, charging its own cache
// model, before handing decoded batches to its RedoApplier.
//
// In the simulated environment the backup is co-simulated deterministically:
// after each commit the primary polls the backup with the virtual time at
// which the Memory Channel traffic it just generated lands; the ActiveBackup
// advances its own clock, parses whatever complete transactions have
// physically arrived in its replica, applies them (charging its own cache
// model), and records when its consumer cursor becomes visible to the
// primary for flow control.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "repl/mc_ring_link.hpp"
#include "repl/pipeline.hpp"
#include "repl/primary_store.hpp"
#include "repl/redo_ring.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"

namespace vrep::repl {

// Layout of the backup arena used by the active scheme.
struct ActiveBackupLayout {
  std::size_t ring_offset = 0;
  std::size_t ring_capacity = 1ull << 20;  // data bytes
  std::size_t db_offset = 0;
  std::size_t db_size = 0;

  static ActiveBackupLayout make(std::size_t db_size, std::size_t ring_capacity = 1ull << 20);
  std::size_t arena_bytes() const { return db_offset + db_size; }
};

class ActiveBackup : private RedoApplier::Target {
 public:
  // `cpu` is the backup's CPU (own clock + cache); `arena` its physical
  // memory holding the ring replica and the database copy. With a
  // `membership`, the applier fences stale-epoch traffic (split-brain
  // defense across takeovers); without one, everything runs in epoch 1.
  ActiveBackup(sim::Cpu& cpu, rio::Arena& arena, const ActiveBackupLayout& layout,
               sim::McFabric& fabric, cluster::Membership* membership = nullptr,
               std::uint64_t node_id = 2);

  // Busy-wait iteration: bring the backup to virtual time `t`, deliver what
  // has physically arrived, and apply every complete transaction found.
  void poll(sim::SimTime t);

  std::uint64_t consumer() const { return consumer_; }
  std::uint64_t applied_seq() const { return applier_.applied_seq(); }

  // Flow control as the *primary* experiences it: after applying a batch the
  // backup writes its cursor through to the primary, which therefore sees
  // the value one propagation delay after the apply finishes.
  static constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();
  std::uint64_t consumer_visible(sim::SimTime t) const;
  // Highest applied sequence whose cursor write-back is visible at `t` (the
  // McRingLink synthesizes kConsumerAck frames from this).
  std::uint64_t applied_visible(sim::SimTime t) const;
  sim::SimTime next_visibility_after(sim::SimTime t) const;

  std::uint8_t* db() { return arena_->data() + layout_.db_offset; }
  const std::uint8_t* db() const { return arena_->data() + layout_.db_offset; }

  // Primary died at virtual time `crash_time`: cut the fabric, then apply
  // every complete transaction the replica received. Returns the committed
  // sequence the backup now serves (trailing in-flight commits are lost —
  // the 1-safe window — but never torn).
  std::uint64_t takeover(sim::SimTime crash_time);

  sim::Cpu& cpu() { return *cpu_; }
  // Protocol state machine (sequencing, fencing, stats) — shared with the
  // TCP/loopback backups.
  RedoApplier& applier() { return applier_; }
  const RedoApplier& applier() const { return applier_; }

 private:
  // RedoApplier::Target: replica bytes land in the database copy through the
  // instrumented bus, charging the backup's own cache model.
  void write(std::uint64_t off, const void* src, std::size_t len) override;
  std::size_t capacity() const override { return layout_.db_size; }
  const std::uint8_t* data() const override { return db(); }

  // Parse one complete transaction starting at consumer_; returns true and
  // applies it if its commit marker (matching seq and checksum) has arrived.
  bool try_apply_one();
  std::uint32_t ring_crc(std::uint64_t from, std::uint64_t to) const;

  sim::Cpu* cpu_;
  rio::Arena* arena_;
  ActiveBackupLayout layout_;
  sim::McFabric* fabric_;
  std::uint8_t* data_;
  RedoApplier applier_;
  std::uint64_t consumer_ = 0;
  struct Visibility {
    sim::SimTime at;
    std::uint64_t cursor;
    std::uint64_t seq;
  };
  // Cursor write-back events, oldest first; pruned as the primary reads.
  mutable std::deque<Visibility> visibility_;
  mutable std::uint64_t last_visible_ = 0;
  mutable std::uint64_t last_visible_seq_ = 0;
};

// The active primary over simulated Memory Channel rings: a PrimaryStore
// (local V3 store + RedoPipeline, see repl/primary_store.hpp) whose pipeline
// peers are McRingLinks, one ring shadow per co-simulated backup. Each
// captured store also charges the local write doubling into the redo
// staging buffer to the primary's bus.
class ActivePrimary final : public PrimaryStore {
 public:
  // `primary_arena` hosts the local V3 store plus the local halves of the
  // doubled ring writes; `backup` owns the replica arena whose ring region
  // is reached through `bus`'s MC interface. With a `membership`, shipped
  // batches carry its epoch and a takeover elsewhere fences this primary
  // (fenced()); `lineage` seeds the rejoin delta-vs-full-image rule for a
  // primary promoted from backup.
  ActivePrimary(sim::MemBus& bus, rio::Arena& primary_arena, rio::Arena& backup_arena,
                const core::StoreConfig& config, const ActiveBackupLayout& layout,
                ActiveBackup* backup, bool format, cluster::Membership* membership = nullptr,
                RedoPipeline::Lineage lineage = RedoPipeline::Lineage{0, 0});

  // Attach another co-simulated backup: a further ring shadow is carved out
  // of the primary arena (size it with the multi-backup
  // primary_arena_bytes overload) and replicated into `backup_arena`'s ring
  // region. Returns the pipeline peer index. All backups share `layout`.
  std::size_t add_backup(rio::Arena& backup_arena, ActiveBackup* backup);

  // Install an existing database image and continue its sequence numbering
  // (promotion of a co-simulated backup to primary).
  void seed_from(const std::uint8_t* db, std::size_t size, std::uint64_t seq);

  // Virtual time spent waiting for 2-safe acks, and stalled on full rings,
  // summed over every backup.
  sim::SimTime two_safe_wait_ns() const;
  sim::SimTime flow_stall_ns() const;

  // Arena size for a primary shipping to `backups` co-simulated backups
  // (one ring shadow each).
  static std::size_t primary_arena_bytes(const core::StoreConfig& config,
                                         const ActiveBackupLayout& layout,
                                         std::size_t backups = 1);

 private:
  void on_captured_store(std::uint64_t off, const void* src, std::size_t len) override;

  rio::Arena* primary_arena_;
  ActiveBackupLayout layout_;
  McRingLink link_;
  std::vector<std::unique_ptr<McRingLink>> extra_links_;
};

}  // namespace vrep::repl
