// The single-store redo-shipping primary (paper Section 6), independent of
// its carrier.
//
// PrimaryStore is a TransactionStore decorator: workloads run unchanged
// against a local Version 3 store, whose write capture stages every modified
// byte range into a repl::RedoPipeline; commit_transaction() commits locally
// and hands the batch to the pipeline under the local commit sequence. The
// carriers live in the derived classes, which attach them as pipeline peers
// (slot 0 first, once its carrier exists):
//
//   * repl::ActivePrimary — simulated Memory Channel rings (McRingLinks it
//                           builds);
//   * net::WirePrimary    — real transports (each net::Transport is a
//                           ReplicationLink, attached as is).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/membership.hpp"
#include "core/api.hpp"
#include "core/v3_inline_log.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "sim/mem_bus.hpp"

namespace vrep::repl {

class PrimaryStore : public core::TransactionStore,
                     private sim::MemBus::CaptureSink,
                     private RedoPipeline::Source {
 public:
  static constexpr std::size_t kDefaultRedoHistoryBytes = RedoPipeline::kDefaultRedoHistoryBytes;
  using Lineage = RedoPipeline::Lineage;
  using Stats = RedoPipeline::Stats;

  // 2-safe commit (extension beyond the paper's 1-safe design): a commit
  // does not resolve until the backups have durably applied the transaction
  // and their acknowledgments have reached the primary. Closes the window of
  // vulnerability at the price of one round trip per commit.
  void set_two_safe(bool enabled) { pipeline_.set_two_safe(enabled); }
  bool two_safe() const { return pipeline_.two_safe(); }
  // Acks required for a 2-safe commit to count as quorum-durable (default 1).
  void set_quorum(unsigned k) { pipeline_.set_quorum(k); }
  unsigned quorum() const { return pipeline_.quorum(); }
  RedoPipeline::CommitOutcome last_commit_outcome() const {
    return pipeline_.last_commit_outcome();
  }

  // Incremental fuzzy checkpointing (strictly opt-in; see repl/pipeline.hpp):
  // the commit path advances a background image copy, each completed
  // watermark truncates redo history, and laggard rejoins are served
  // checkpoint+delta instead of a full image.
  void enable_checkpoints(std::uint64_t interval_txns,
                          std::size_t copy_bytes_per_commit = 256 * 1024) {
    pipeline_.enable_checkpoints(interval_txns, copy_bytes_per_commit);
  }
  bool checkpoints_enabled() const { return pipeline_.checkpoints_enabled(); }

  // Group commit with a bounded in-flight window (see repl/pipeline.hpp):
  // up to G commits coalesce into one wire unit and up to W shipped
  // sequences may await acks before commit_transaction blocks. Defaults
  // (W=1, G=1) reproduce the classic blocking commit byte-for-byte.
  void set_commit_window(unsigned w) { pipeline_.set_commit_window(w); }
  unsigned commit_window() const { return pipeline_.commit_window(); }
  void set_group_size(unsigned g) { pipeline_.set_group_size(g); }
  unsigned group_size() const { return pipeline_.group_size(); }
  // Flush any buffered group and resolve every outstanding ticket.
  RedoPipeline::CommitOutcome sync() { return pipeline_.sync(); }
  RedoPipeline::CommitOutcome wait(RedoPipeline::CommitTicket t) { return pipeline_.wait(t); }

  void begin_transaction() override;
  void set_range(void* base, std::size_t len) override;
  void commit_transaction() override;
  void abort_transaction() override;
  int recover() override;
  bool validate() const override { return local_->validate(); }
  core::VersionKind kind() const override { return core::VersionKind::kV3InlineLog; }
  std::uint8_t* db() override { return local_->db(); }
  const std::uint8_t* db() const override { return local_->db(); }
  std::size_t db_size() const override { return local_->db_size(); }
  std::uint64_t committed_seq() const override { return local_->committed_seq(); }
  std::vector<core::StoreRegion> regions() const override { return local_->regions(); }
  sim::MemBus& bus() override { return *bus_; }

  // A newer epoch fenced us: stop acting as primary (demote + rejoin).
  bool fenced() const { return pipeline_.fenced(); }
  // The epoch that fenced us (valid when fenced() is true); feed it to
  // cluster::Membership::demote_to_backup.
  std::uint64_t fenced_by_epoch() const { return pipeline_.fenced_by_epoch(); }
  std::uint64_t epoch() const { return pipeline_.epoch(); }
  const Stats& stats() const { return pipeline_.stats(); }

  // Protocol engine (shared with every carrier) — direct access for tests
  // and drivers.
  RedoPipeline& pipeline() { return pipeline_; }
  const RedoPipeline& pipeline() const { return pipeline_; }

 protected:
  // The local store runs Version 3 over `bus` and `arena`; `format=false`
  // attaches to existing state (call recover() afterwards). With a
  // `membership`, shipped batches carry its epoch and a takeover elsewhere
  // fences this primary; `lineage` seeds the rejoin delta-vs-full-image
  // rule for a primary promoted from backup. The pipeline starts with an
  // empty slot 0: the derived class attaches its carrier there.
  PrimaryStore(sim::MemBus& bus, rio::Arena& arena, const core::StoreConfig& config, bool format,
               cluster::Membership* membership, Lineage lineage,
               std::size_t redo_history_bytes = kDefaultRedoHistoryBytes);

  // Capture -> stage: every store the local transaction lands in the
  // database becomes staged redo.
  void on_captured_store(std::uint64_t off, const void* src, std::size_t len) override;

  core::InlineLogStore& local() { return *local_; }

 private:
  sim::MemBus* bus_;
  std::unique_ptr<core::InlineLogStore> local_;
  RedoPipeline pipeline_;
};

}  // namespace vrep::repl
