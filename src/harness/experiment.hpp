// Experiment runner: assembles a complete simulated configuration
// (version x replication mode x workload x database size x #streams),
// executes it on the virtual machine, and reports the measurements the
// paper's tables are built from — transaction throughput and the
// modified/undo/meta breakdown of the bytes shipped to the backup.
#pragma once

#include <cstdint>

#include "core/api.hpp"
#include "sim/alpha_cost_model.hpp"
#include "sim/traffic.hpp"
#include "util/histogram.hpp"
#include "workload/workload.hpp"

namespace vrep::harness {

enum class Mode { kStandalone, kPassive, kActive };

const char* mode_name(Mode m);

struct ExperimentConfig {
  core::VersionKind version = core::VersionKind::kV3InlineLog;
  Mode mode = Mode::kStandalone;
  wl::WorkloadKind workload = wl::WorkloadKind::kDebitCredit;
  std::size_t db_size = 50ull << 20;
  int streams = 1;                        // >1 = SMP primary (Section 8)
  std::uint64_t txns_per_stream = 100'000;
  std::uint64_t seed = 1;
  std::size_t ring_capacity = 1ull << 20;   // active scheme redo ring
  std::size_t v0_meta_pad_bytes = 195;      // see StoreConfig
  // Ablation: undo the Section 5.1 optimisation and write the mirror
  // versions' range array through to the backup as well.
  bool ship_everything_passive = false;
  // Extension: 2-safe active commits (wait for the backup's ack).
  bool two_safe = false;
  // Extension: group commit — up to `commit_group` transactions per ring
  // unit, up to `commit_window` shipped-but-unacked sequences before a
  // commit blocks. Defaults reproduce the classic per-commit behavior.
  unsigned commit_window = 1;
  unsigned commit_group = 1;
  // Extension: incremental fuzzy checkpointing on the active primary — a new
  // checkpoint starts every `checkpoint_interval` commits, advancing
  // `checkpoint_copy_bytes` per commit, truncating redo history at each
  // watermark. 0 = off (the classic bounded-history behavior, default).
  std::uint64_t checkpoint_interval = 0;
  std::size_t checkpoint_copy_bytes = 256 * 1024;
  // Extension: partitioned multi-primary. shards > 1 routes the run through
  // shard::ShardedCluster (per-shard pipelines + 2PC for the remote-branch
  // mix) instead of the virtual-time node; `remote_fraction` of the
  // transactions touch a second shard. streams/version/mode are ignored on
  // this path; txns = txns_per_stream.
  unsigned shards = 1;
  double remote_fraction = 0.0;
  unsigned backups_per_shard = 1;
  // Extension: online rebalance mid-run (sharded path only). Nonzero
  // schedules a split of shard 0's range at its midpoint just before this
  // 1-based transaction index, followed by a planned primary handoff of
  // shard 0 — the scripted "split + hand off under live traffic" recipe.
  std::uint64_t rebalance_at_txn = 0;
  sim::AlphaCostModel cost{};
};

struct ExperimentResult {
  double seconds = 0;              // virtual elapsed time (max over streams);
                                   // wall-clock on the sharded path
  double tps = 0;                  // aggregate committed transactions / s
  std::uint64_t committed = 0;
  std::uint64_t cross_committed = 0;  // sharded path: 2PC commits
  sim::TrafficStats traffic{};     // bytes written through to the backup
  std::uint64_t packets = 0;       // Memory Channel packets on the wire
  double avg_packet_bytes = 0;
  double link_utilization = 0;     // link busy time / elapsed time
  double mc_stall_seconds = 0;     // CPU stalled on a full adapter FIFO
  double flow_stall_seconds = 0;   // active: CPU blocked on a full redo ring
  // Per-transaction virtual-time commit latency (ns), across all streams.
  Histogram commit_latency_ns{};
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace vrep::harness
