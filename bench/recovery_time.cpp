// Extension bench: backup takeover latency per scheme.
//
// Section 5.1's optimisation trades failure-free throughput for recovery
// time: because the mirror versions never ship their range array, the
// backup must copy the *entire database* from the mirror at takeover, while
// the logging versions repair only the in-flight transaction. This bench
// measures that takeover latency (virtual time on the backup's CPU) as a
// function of database size.
// The active-scheme companion sweep measures *rejoin* cost: the bytes a
// laggard backup must receive to catch up. Without checkpoints that cost
// cliffs to the full database image once the bounded redo history evicts
// the gap (and, with an unbounded history, grows linearly with the gap
// itself). With fuzzy checkpoints + history truncation it is O(delta):
// the pages dirtied since the laggard's sequence plus the short replay tail
// above the watermark — flat in both database size and history length.
// Byte counts over the replication link are exact and deterministic, so
// these cells are drift-gated like every other baseline.
#include <cstring>
#include <deque>
#include <optional>

#include "bench_common.hpp"
#include "repl/passive.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

using namespace vrep;

namespace {

double takeover_seconds(core::VersionKind kind, std::size_t db_size) {
  sim::AlphaCostModel cost;
  sim::McFabric fabric(cost.link);
  sim::Node primary_node(cost, 1, &fabric);
  sim::Node backup_node(cost, 1, nullptr);

  core::StoreConfig config = wl::suggest_config(wl::WorkloadKind::kDebitCredit, db_size);
  const std::size_t bytes = core::required_arena_size(kind, config);
  rio::Arena primary_arena = rio::Arena::create(bytes);
  rio::Arena backup_arena = rio::Arena::create(bytes);
  auto store = core::make_store(kind, primary_node.cpu().bus(), primary_arena, config, true);
  repl::setup_passive_replication(*store, primary_arena, backup_arena);
  std::memcpy(backup_arena.data(), primary_arena.data(), bytes);

  // A little committed work plus one in-flight transaction, then a quiesced
  // crash (worst case for the mirror versions: state == kActive).
  auto workload = wl::make_workload(wl::WorkloadKind::kDebitCredit, db_size);
  workload->initialize(*store);
  store->flush_initial_state();
  std::memcpy(backup_arena.data(), primary_arena.data(), bytes);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) workload->run_txn(*store, rng);
  store->begin_transaction();
  store->set_range(store->db() + 64, 32);
  const std::uint64_t junk = ~0ull;
  store->bus().write(store->db() + 64, &junk, 8, sim::TrafficClass::kModified);
  primary_node.cpu().mc()->flush();
  fabric.deliver_all();

  sim::Cpu& backup_cpu = backup_node.cpu();
  const sim::SimTime before = backup_cpu.clock().now();
  auto promoted = core::make_store(kind, backup_cpu.bus(), backup_arena, config, false);
  promoted->takeover();
  return sim::to_seconds(backup_cpu.clock().now() - before);
}

// ---- active-scheme rejoin cost (checkpointed vs not) -----------------------

// Records outbound frames (to tally exact rejoin bytes); recv serves the
// scripted rejoin request then reports timeout.
class RecordingLink final : public repl::ReplicationLink {
 public:
  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    const auto* p = static_cast<const std::uint8_t*>(payload);
    sent.push_back(repl::Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
    return true;
  }
  std::optional<repl::Frame> recv(int) override {
    if (inbound.empty()) {
      error_ = repl::LinkError::kTimeout;
      return std::nullopt;
    }
    repl::Frame frame = std::move(inbound.front());
    inbound.pop_front();
    error_ = repl::LinkError::kNone;
    return frame;
  }
  repl::LinkError last_error() const override { return error_; }
  bool connected() const override { return true; }

  std::deque<repl::Frame> inbound;
  std::vector<repl::Frame> sent;

 private:
  repl::LinkError error_ = repl::LinkError::kNone;
};

class VecSource final : public repl::RedoPipeline::Source {
 public:
  explicit VecSource(std::size_t size) : db_(size, 0) {}
  const std::uint8_t* db() const override { return db_.data(); }
  std::size_t db_size() const override { return db_.size(); }
  std::uint64_t committed_seq() const override { return committed; }
  std::uint8_t* mutable_db() { return db_.data(); }

  std::uint64_t committed = 0;

 private:
  std::vector<std::uint8_t> db_;
};

struct RejoinCost {
  const char* decision;      // which repair the policy picked
  std::uint64_t frames = 0;  // frames the rejoin serve put on the link
  std::uint64_t bytes = 0;   // payload bytes of those frames
  std::uint64_t checkpoints = 0;
  std::uint64_t truncated_bytes = 0;
};

// Run `txns` commits of a Debit-Credit-flavoured hot set (128-byte writes
// inside a 256 KiB hot region, so the true delta is independent of database
// size), freeze a laggard at txns/4, then serve its rejoin and count the
// exact bytes shipped.
RejoinCost rejoin_cost(std::size_t db_size, std::uint64_t txns, bool checkpointed,
                       std::size_t history_bytes) {
  VecSource source(db_size);
  RecordingLink link;
  repl::RedoPipeline pipe(source, &link, nullptr, {}, history_bytes);
  if (checkpointed) {
    // 64-commit checkpoint cadence; the fuzzy build spreads the image copy
    // across 64 commits regardless of database size.
    pipe.enable_checkpoints(/*interval_txns=*/64, /*copy_bytes_per_commit=*/db_size / 64 + 1);
  }
  const std::uint64_t lag_at = txns / 4;
  const std::size_t hot = std::min<std::size_t>(256 * 1024, db_size);
  Rng rng(7);
  for (std::uint64_t seq = 1; seq <= txns; ++seq) {
    pipe.begin();
    constexpr std::size_t kLen = 128;
    const std::size_t off = rng.below(hot - kLen);
    std::uint8_t bytes[kLen];
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
    std::memcpy(source.mutable_db() + off, bytes, kLen);
    pipe.stage(off, bytes, kLen);
    source.committed = seq;
    pipe.wait(pipe.commit_async(seq));
  }

  RejoinCost cost;
  using Decision = repl::RedoPipeline::RejoinDecision;
  switch (pipe.decide_rejoin(lag_at, 1)) {
    case Decision::kDelta: cost.decision = "delta"; break;
    case Decision::kCheckpointDelta: cost.decision = "checkpoint+delta"; break;
    case Decision::kFullImage: cost.decision = "full-image"; break;
  }
  repl::Frame request{repl::FrameKind::kRejoinRequest, 1, std::vector<std::uint8_t>(24)};
  const std::uint64_t node = 1, state_epoch = 1;
  std::memcpy(request.payload.data(), &lag_at, 8);
  std::memcpy(request.payload.data() + 8, &node, 8);
  std::memcpy(request.payload.data() + 16, &state_epoch, 8);
  link.inbound.push_back(std::move(request));
  link.sent.clear();
  if (!pipe.handle_rejoin(0, /*timeout_ms=*/0)) {
    cost.decision = "serve-failed";
    return cost;
  }
  for (const auto& f : link.sent) {
    cost.frames++;
    cost.bytes += f.payload.size();
  }
  cost.checkpoints = pipe.stats().checkpoints_completed;
  cost.truncated_bytes = pipe.stats().redo_truncated_bytes;
  return cost;
}

std::string mb_str(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f MB", bytes / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.has("quick");

  Table table("Extension: passive takeover latency (virtual time on the backup CPU)");
  table.set_header({"db size", "V1 mirror (full copy)", "V2 mirror (full copy)",
                    "V3 inline log", "V0 Vista"});
  bench::JsonReport report(args, "recovery_time");
  for (const std::size_t mb : {10, 50, quick ? 50 : 200}) {
    const std::size_t db = mb << 20;
    const core::VersionKind kinds[] = {
        core::VersionKind::kV1MirrorCopy, core::VersionKind::kV2MirrorDiff,
        core::VersionKind::kV3InlineLog, core::VersionKind::kV0Vista};
    double ms[4];
    for (int k = 0; k < 4; ++k) {
      ms[k] = takeover_seconds(kinds[k], db) * 1e3;
      Json cell = Json::object();
      cell.set("name", std::string(core::version_name(kinds[k])) + "/" + std::to_string(mb) +
                           "MB");
      cell.set("version", core::version_name(kinds[k]));
      cell.set("db_mb", Json(static_cast<std::uint64_t>(mb)));
      cell.set("takeover_ms", Json(ms[k]));
      report.add_cell(std::move(cell));
    }
    char v1[32], v2[32], v3[32], v0[32];
    std::snprintf(v1, sizeof v1, "%.1f ms", ms[0]);
    std::snprintf(v2, sizeof v2, "%.1f ms", ms[1]);
    std::snprintf(v3, sizeof v3, "%.3f ms", ms[2]);
    std::snprintf(v0, sizeof v0, "%.3f ms", ms[3]);
    table.add_row({std::to_string(mb) + " MB", v1, v2, v3, v0});
  }
  table.print();
  std::puts("The mirror versions pay a whole-database copy at takeover (the price of the\n"
            "Section 5.1 optimisation); the logging versions repair in microseconds\n"
            "regardless of database size.");

  // Sweep 1: rejoin cost vs DATABASE SIZE under a bounded (64 KiB) redo
  // history. The laggard's gap always outgrew the history; without a
  // checkpoint that is the full-image cliff, growing linearly with the
  // database. With checkpoints the cost is the dirty delta — flat.
  {
    Table t2("Active rejoin cost vs database size (1024 txns, laggard at 256, 64 KiB history)");
    t2.set_header({"db size", "uncheckpointed", "(path)", "checkpointed", "(path)"});
    constexpr std::uint64_t kTxns = 1024;
    constexpr std::size_t kHistory = 64 * 1024;
    for (const std::size_t mb : {1, 4, quick ? 4 : 16}) {
      const std::size_t db = mb << 20;
      const RejoinCost plain = rejoin_cost(db, kTxns, /*checkpointed=*/false, kHistory);
      const RejoinCost ckpt = rejoin_cost(db, kTxns, /*checkpointed=*/true, kHistory);
      for (const auto* pair : {&plain, &ckpt}) {
        Json cell = Json::object();
        cell.set("name", std::string("rejoin_dbsize/") + std::to_string(mb) + "MB/" +
                             (pair == &ckpt ? "checkpointed" : "uncheckpointed"));
        cell.set("sweep", "db_size");
        cell.set("db_mb", Json(static_cast<std::uint64_t>(mb)));
        cell.set("txns", Json(kTxns));
        cell.set("checkpointed", Json(pair == &ckpt));
        cell.set("decision", std::string(pair->decision));
        cell.set("rejoin_frames", Json(pair->frames));
        cell.set("rejoin_bytes", Json(pair->bytes));
        cell.set("checkpoints_completed", Json(pair->checkpoints));
        cell.set("redo_truncated_bytes", Json(pair->truncated_bytes));
        report.add_cell(std::move(cell));
      }
      t2.add_row({std::to_string(mb) + " MB", mb_str(static_cast<double>(plain.bytes)),
                  plain.decision, mb_str(static_cast<double>(ckpt.bytes)), ckpt.decision});
    }
    t2.print();
  }

  // Sweep 2: rejoin cost vs HISTORY LENGTH under an effectively unbounded
  // (8 MiB) history. A delta replay grows linearly with the gap; the
  // checkpoint watermark truncates it, so the checkpointed cost stays flat
  // no matter how long the primary ran.
  {
    Table t3("Active rejoin cost vs history length (4 MB db, laggard at txns/4, 8 MiB history)");
    t3.set_header({"txns", "uncheckpointed", "(path)", "checkpointed", "(path)"});
    constexpr std::size_t kDb = 4 << 20;
    constexpr std::size_t kBigHistory = 8 * 1024 * 1024;
    for (const std::uint64_t txns : {std::uint64_t{512}, std::uint64_t{2048},
                                     quick ? std::uint64_t{2048} : std::uint64_t{8192}}) {
      const RejoinCost plain = rejoin_cost(kDb, txns, /*checkpointed=*/false, kBigHistory);
      const RejoinCost ckpt = rejoin_cost(kDb, txns, /*checkpointed=*/true, kBigHistory);
      for (const auto* pair : {&plain, &ckpt}) {
        Json cell = Json::object();
        cell.set("name", std::string("rejoin_history/") + std::to_string(txns) + "txns/" +
                             (pair == &ckpt ? "checkpointed" : "uncheckpointed"));
        cell.set("sweep", "history_length");
        cell.set("db_mb", Json(static_cast<std::uint64_t>(kDb >> 20)));
        cell.set("txns", Json(txns));
        cell.set("checkpointed", Json(pair == &ckpt));
        cell.set("decision", std::string(pair->decision));
        cell.set("rejoin_frames", Json(pair->frames));
        cell.set("rejoin_bytes", Json(pair->bytes));
        cell.set("checkpoints_completed", Json(pair->checkpoints));
        cell.set("redo_truncated_bytes", Json(pair->truncated_bytes));
        report.add_cell(std::move(cell));
      }
      t3.add_row({std::to_string(txns), mb_str(static_cast<double>(plain.bytes)),
                  plain.decision, mb_str(static_cast<double>(ckpt.bytes)), ckpt.decision});
    }
    t3.print();
  }
  std::puts("Rejoin: without checkpoints a laggard pays the full image once the bounded\n"
            "history evicts its gap (cost grows with the database), or an ever-longer\n"
            "delta replay if the history is unbounded (cost grows with the gap). Fuzzy\n"
            "checkpoints + watermark truncation bound it at the dirty delta + one\n"
            "checkpoint interval of replay — flat in both dimensions.");
  return report.write() ? 0 : 1;
}
