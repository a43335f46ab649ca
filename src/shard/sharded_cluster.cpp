#include "shard/sharded_cluster.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>

#include "cluster/membership.hpp"
#include "core/latch.hpp"
#include "repl/pipeline.hpp"
#include "shard/rebalancer.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::shard {

namespace {

// Headroom reserved for shards created by migrations after construction:
// shards_ never reallocates, so concurrent readers can index it while
// add_shard appends (the published count is live_shards_).
constexpr unsigned kMaxShardGrowth = 8;

// The deterministic inline-delivery loopback carrier: one object per
// (primary, backup) pair. send() delivers the frame to the applier
// synchronously; the applier's responses (acks, fences, rejoin requests)
// queue in `inbox_` for the pipeline's next recv(). kill() snaps the
// carrier the way a process death would: sends fail, recv reports closed.
class InlineLink final : public repl::ReplicationLink {
 public:
  explicit InlineLink(repl::RedoApplier* applier) : applier_(applier), reply_(this) {}

  void kill() { down_ = true; }
  // The backup -> primary direction (request_rejoin sends through this).
  repl::ReplicationLink& reply_link() { return reply_; }

  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    if (down_) {
      err_ = repl::LinkError::kClosed;
      return false;
    }
    const auto* p = static_cast<const std::uint8_t*>(payload);
    repl::Frame frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)};
    applier_->on_frame(frame, reply_);
    return true;
  }

  std::optional<repl::Frame> recv(int timeout_ms) override {
    (void)timeout_ms;  // inline delivery: either it is queued or it never will be
    if (!inbox_.empty()) {
      repl::Frame frame = std::move(inbox_.front());
      inbox_.pop_front();
      err_ = repl::LinkError::kNone;
      return frame;
    }
    err_ = down_ ? repl::LinkError::kClosed : repl::LinkError::kTimeout;
    return std::nullopt;
  }

  repl::LinkError last_error() const override { return err_; }
  bool connected() const override { return !down_; }

 private:
  struct Reply final : repl::ReplicationLink {
    explicit Reply(InlineLink* owner) : owner_(owner) {}
    bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
              std::size_t len) override {
      if (owner_->down_) return false;
      const auto* p = static_cast<const std::uint8_t*>(payload);
      owner_->inbox_.push_back(repl::Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
      return true;
    }
    std::optional<repl::Frame> recv(int) override { return std::nullopt; }
    repl::LinkError last_error() const override { return repl::LinkError::kTimeout; }
    bool connected() const override { return !owner_->down_; }

   private:
    InlineLink* owner_;
  };

  repl::RedoApplier* applier_;
  Reply reply_;
  std::deque<repl::Frame> inbox_;
  repl::LinkError err_ = repl::LinkError::kNone;
  bool down_ = false;
};

// Replica bytes land in a plain buffer.
struct BufferTarget final : repl::RedoApplier::Target {
  explicit BufferTarget(std::size_t size) : bytes(size, 0) {}
  void write(std::uint64_t off, const void* src, std::size_t len) override {
    VREP_CHECK(off + len <= bytes.size());
    std::memcpy(bytes.data() + off, src, len);
  }
  std::size_t capacity() const override { return bytes.size(); }
  const std::uint8_t* data() const override { return bytes.data(); }

  std::vector<std::uint8_t> bytes;
};

// Little-endian i32 balance update against a raw image.
std::vector<std::uint8_t> bumped_balance(const std::uint8_t* db, std::uint64_t off,
                                         std::int32_t amount) {
  std::int32_t balance;
  std::memcpy(&balance, db + off, sizeof balance);
  balance += amount;
  std::vector<std::uint8_t> bytes(sizeof balance);
  std::memcpy(bytes.data(), &balance, sizeof balance);
  return bytes;
}

}  // namespace

TxnDecision plan_txn(const Router& router, const wl::DebitCredit& workload,
                     unsigned num_shards, Rng& rng, double remote_fraction) {
  TxnDecision d;
  // The client's branch (the teller's node) picks the home shard; the
  // remote-branch rule then sends the account to a different shard.
  d.key = rng.next_u64();
  d.home = router.route(d.key);
  d.map_version = router.map_version();
  const bool want_remote =
      num_shards > 1 && wl::DebitCredit::draw_remote(rng, remote_fraction);
  d.plan = workload.plan_txn(rng);
  if (want_remote) {
    d.cross = true;
    const auto pick = static_cast<ShardId>(rng.below(num_shards - 1));
    d.remote = pick >= d.home ? pick + 1 : pick;
  } else {
    d.remote = d.home;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

struct ShardedCluster::Shard {
  struct Backup {
    explicit Backup(int node, std::size_t db_size)
        : node_id(node),
          target(db_size),
          membership(std::make_unique<cluster::Membership>(node, cluster::Role::kBackup)),
          applier(target, membership.get(), static_cast<std::uint64_t>(node)) {}

    int node_id;
    BufferTarget target;
    std::unique_ptr<cluster::Membership> membership;
    repl::RedoApplier applier;
    std::unique_ptr<InlineLink> link;  // primary-side endpoint
  };

  struct Src final : repl::RedoPipeline::Source {
    Shard* owner = nullptr;
    const std::uint8_t* db() const override { return owner->db.data(); }
    std::size_t db_size() const override { return owner->db.size(); }
    std::uint64_t committed_seq() const override { return owner->committed; }
  };

  ShardId id = 0;
  std::vector<std::uint8_t> db;
  std::uint64_t committed = 0;
  Src source;
  std::unique_ptr<cluster::Membership> membership;  // the acting primary's
  core::Latch latch;
  std::unique_ptr<repl::RedoPipeline> pipeline;
  std::vector<std::unique_ptr<Backup>> backups;
  bool primary_alive = true;
  int next_node = 1;  // next unused backup node id (never reused)
};

// ---------------------------------------------------------------------------
// Migration bookkeeping
// ---------------------------------------------------------------------------

ShardedCluster::Migration::Migration(ShardMap t, std::vector<Move> m)
    : target(std::move(t)),
      moves(std::move(m)),
      transferred(moves.size(), 0),
      dirty(moves.size(), 0) {
  by_off.reserve(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    by_off.emplace(move_key(moves[i].src, moves[i].off), i);
  }
}

void ShardedCluster::note_write(ShardId shard, std::uint64_t off) {
  // Caller holds `shard`'s latch. A bump on a record whose value already
  // landed on the destination leaves a residual at the source; marking it
  // dirty makes the migration re-ship exactly that residual.
  Migration* m = migration_.get();
  if (m == nullptr) return;
  const auto it = m->by_off.find(move_key(shard, off));
  if (it == m->by_off.end()) return;
  if (m->transferred[it->second] != 0) m->dirty[it->second] = 1;
}

// ---------------------------------------------------------------------------
// ShardedCluster
// ---------------------------------------------------------------------------

ShardedCluster::ShardedCluster(const ShardedConfig& config)
    : config_(config),
      workload_bytes_(config.shard_db_size - config.decision_slots * DecisionLog::kSlotBytes),
      map_(ShardMap::uniform(config.shards)),
      workload_(workload_bytes_) {
  VREP_CHECK(config_.shards >= 1);
  VREP_CHECK(config_.decision_slots >= 2);
  VREP_CHECK(workload_bytes_ > 0 && workload_bytes_ < config_.shard_db_size);
  coordinator_ = std::make_unique<CrossShardCoordinator>(
      DecisionLog(workload_bytes_, config_.decision_slots));

  shards_.reserve(config_.shards + kMaxShardGrowth);
  for (unsigned i = 0; i < config_.shards; ++i) {
    shards_.push_back(build_shard(i));
  }
  live_shards_.store(config_.shards, std::memory_order_release);
}

ShardedCluster::~ShardedCluster() = default;

std::unique_ptr<ShardedCluster::Shard> ShardedCluster::build_shard(ShardId id) {
  auto shard = std::make_unique<Shard>();
  shard->id = id;
  shard->db.assign(config_.shard_db_size, 0);
  shard->source.owner = shard.get();
  shard->membership = std::make_unique<cluster::Membership>(0, cluster::Role::kPrimary);
  shard->pipeline = std::make_unique<repl::RedoPipeline>(
      shard->source, nullptr, shard->membership.get(), repl::RedoPipeline::Lineage{0, 0},
      config_.redo_history_bytes);
  for (unsigned b = 0; b < config_.backups_per_shard; ++b) {
    auto backup = std::make_unique<Shard::Backup>(static_cast<int>(b) + 1,
                                                  config_.shard_db_size);
    backup->link = std::make_unique<InlineLink>(&backup->applier);
    if (b == 0) {
      shard->pipeline->attach_link(0, backup->link.get());
    } else {
      shard->pipeline->add_peer(backup->link.get());
    }
    shard->membership->adopt_backup(backup->node_id);
    shard->backups.push_back(std::move(backup));
  }
  shard->next_node = static_cast<int>(config_.backups_per_shard) + 1;
  shard->pipeline->set_two_safe(config_.two_safe && !shard->backups.empty());
  shard->pipeline->set_quorum(config_.quorum);
  if (!shard->backups.empty()) {
    VREP_CHECK(shard->pipeline->sync_backup());  // seed the replicas
  }
  return shard;
}

ShardId ShardedCluster::add_shard() {
  // shards_ must never reallocate (concurrent readers hold raw indexes), so
  // growth is bounded by the constructor's reservation.
  VREP_CHECK(shards_.size() < shards_.capacity());
  const ShardId id = static_cast<ShardId>(shards_.size());
  shards_.push_back(build_shard(id));
  live_shards_.store(static_cast<unsigned>(shards_.size()), std::memory_order_release);
  static metrics::Counter& shards_added = metrics::counter("shard.rebalance.shards_added");
  shards_added.add(1);
  return id;
}

CrossShardCoordinator::Participant ShardedCluster::participant(Shard& shard) {
  CrossShardCoordinator::Participant p;
  p.id = shard.id;
  p.latch = &shard.latch;
  p.pipeline = shard.pipeline.get();
  p.db = shard.db.data();
  p.committed = &shard.committed;
  return p;
}

core::Latch& ShardedCluster::shard_latch(ShardId id) { return shards_.at(id)->latch; }
const std::uint8_t* ShardedCluster::shard_db_ptr(ShardId id) const {
  return shards_.at(id)->db.data();
}
CrossShardCoordinator::Participant ShardedCluster::shard_participant(ShardId id) {
  return participant(*shards_.at(id));
}

std::uint64_t ShardedCluster::run_local(Shard& shard, const wl::DebitCredit::TxnPlan& plan) {
  core::LatchGuard guard(shard.latch);
  repl::RedoPipeline& pipeline = *shard.pipeline;
  std::uint8_t* db = shard.db.data();

  pipeline.begin();
  auto write = [&](std::uint64_t off, const std::vector<std::uint8_t>& bytes) {
    pipeline.stage(off, bytes.data(), bytes.size());
    std::memcpy(db + off, bytes.data(), bytes.size());
    note_write(shard.id, off);
  };
  for (const std::uint64_t off : {workload_.account_offset(plan.account),
                                  workload_.teller_offset(plan.teller),
                                  workload_.branch_offset(plan.branch)}) {
    write(off, bumped_balance(db, off, plan.amount));
  }
  const wl::DebitCredit::HistoryRecord rec{plan.account, plan.teller, plan.branch,
                                           plan.amount};
  std::vector<std::uint8_t> hist(sizeof rec);
  std::memcpy(hist.data(), &rec, sizeof rec);
  write(workload_.history_offset(shard.committed), hist);

  const std::uint64_t seq = shard.committed + 1;
  shard.committed = seq;
  pipeline.commit(seq);
  return seq;
}

ShardedCluster::TxnOutcome ShardedCluster::run_one(
    const TxnDecision& d, const CrossShardCoordinator::ChaosHook& chaos) {
  TxnOutcome out;
  out.cross = d.cross;
  out.home = d.home;
  out.remote = d.remote;
  out.map_version = d.map_version;
  Shard& home = *shards_[d.home];

  if (!d.cross) {
    out.home_seq = run_local(home, d.plan);
    out.committed = true;
    return out;
  }

  Shard& remote = *shards_[d.remote];
  const std::uint64_t xid = coordinator_->next_xid(d.home);
  out.xid = xid;

  // The account rides the remote shard; teller, branch and the audit record
  // stay home.
  const wl::DebitCredit::TxnPlan plan = d.plan;
  const ShardId remote_id = d.remote;
  const ShardId home_id = d.home;
  CrossShardCoordinator::WriteGen remote_writes = [this, &remote, remote_id, plan] {
    std::vector<CrossShardCoordinator::Write> w;
    const std::uint64_t off = workload_.account_offset(plan.account);
    w.push_back({off, bumped_balance(remote.db.data(), off, plan.amount)});
    note_write(remote_id, off);
    return w;
  };
  CrossShardCoordinator::WriteGen home_writes = [this, &home, home_id, plan] {
    std::vector<CrossShardCoordinator::Write> w;
    for (const std::uint64_t off : {workload_.teller_offset(plan.teller),
                                    workload_.branch_offset(plan.branch)}) {
      w.push_back({off, bumped_balance(home.db.data(), off, plan.amount)});
      note_write(home_id, off);
    }
    const wl::DebitCredit::HistoryRecord rec{plan.account, plan.teller, plan.branch,
                                             plan.amount};
    std::vector<std::uint8_t> hist(sizeof rec);
    std::memcpy(hist.data(), &rec, sizeof rec);
    w.push_back({workload_.history_offset(home.committed), std::move(hist)});
    return w;
  };

  std::vector<CrossShardCoordinator::RemoteOp> remotes;
  remotes.push_back({participant(remote), std::move(remote_writes)});
  const CrossShardCoordinator::Outcome result =
      coordinator_->commit(participant(home), std::move(remotes), home_writes, xid, chaos);

  out.committed = result.committed;
  out.prepared = result.prepared;
  out.home_seq = result.home_seq;
  out.remote_seq = result.remote_seqs.empty() ? 0 : result.remote_seqs.front();
  // Every in-band resolution the coordinator performed feeds the audit.
  for (const ShardId id : result.decided) {
    (void)id;
    record_resolution(xid, result.committed);
  }
  return out;
}

ShardedCluster::RunResult ShardedCluster::run(std::uint64_t seed, std::uint64_t txns,
                                              double remote_fraction,
                                              const ChaosSchedule& chaos,
                                              const RebalanceScript& script) {
  Rng rng(seed);
  Router router(map_);
  RunResult res;
  res.trace.reserve(txns);
  bool kill_pending = chaos.kill_after_txn != 0;

  // Scripted reconfiguration rides the same loop: due ops fire before the
  // txn at their index (deferred while a migration is active), an active
  // migration advances by steps_per_txn chunks per txn, and whatever is
  // still open after the last txn is driven to completion (events at
  // txns+1). An empty script leaves the loop byte-identical to before.
  Rebalancer rebalancer(*this, Rebalancer::Config{script.chunk_records});
  std::size_t next_op = 0;
  RebalanceOp begin_op{};
  const auto fire_due = [&](std::uint64_t at, std::uint64_t due_limit) {
    while (next_op < script.ops.size() && script.ops[next_op].at_txn <= due_limit &&
           migration_ == nullptr) {
      const RebalanceOp op = script.ops[next_op++];
      RebalanceEvent ev;
      ev.at_txn = at;
      ev.op = op;
      switch (op.kind) {
        case RebalanceOp::Kind::kSplit:
          ev.op.at_hash = rebalancer.begin_split(op.shard, op.at_hash);
          ev.kind = RebalanceEvent::Kind::kBegin;
          begin_op = ev.op;
          break;
        case RebalanceOp::Kind::kMerge:
          rebalancer.begin_merge(op.shard);
          ev.kind = RebalanceEvent::Kind::kBegin;
          begin_op = ev.op;
          break;
        case RebalanceOp::Kind::kHandoff:
          handoff_primary(op.shard);
          ev.kind = RebalanceEvent::Kind::kHandoff;
          break;
        case RebalanceOp::Kind::kAddBackup:
          add_backup(op.shard);
          ev.kind = RebalanceEvent::Kind::kAddBackup;
          break;
      }
      ev.map_version = map_.version();
      ev.num_shards = num_shards();
      res.events.push_back(ev);
    }
  };
  const auto migrate_tick = [&](std::uint64_t at) {
    if (migration_ == nullptr) return;
    const unsigned steps = std::max(1u, script.steps_per_txn);
    for (unsigned k = 0; k < steps && migration_ != nullptr; ++k) {
      if (rebalancer.step()) continue;
      if (rebalancer.cutover()) {
        RebalanceEvent ev;
        ev.kind = RebalanceEvent::Kind::kCutover;
        ev.at_txn = at;
        ev.op = begin_op;
        ev.map_version = map_.version();
        ev.num_shards = num_shards();
        res.events.push_back(ev);
        fire_due(at, at);  // deferred ops fire right after the cutover
      }
      break;
    }
  };

  for (std::uint64_t i = 1; i <= txns; ++i) {
    fire_due(i, i);
    migrate_tick(i);

    const TxnDecision d = plan_txn(router, workload_, num_shards(), rng, remote_fraction);

    if (kill_pending && chaos.point == ChaosSchedule::Point::kBetweenTxns &&
        i >= chaos.kill_after_txn) {
      kill_primary(chaos.shard);
      kill_pending = false;
    }

    CrossShardCoordinator::ChaosHook hook;
    ShardId killed = CrossShardCoordinator::kNoKill;
    if (kill_pending && d.cross && i >= chaos.kill_after_txn &&
        chaos.point != ChaosSchedule::Point::kBetweenTxns) {
      const ShardId victim = chaos.target == ChaosSchedule::Target::kHomeShard ? d.home
                             : chaos.target == ChaosSchedule::Target::kRemoteShard
                                 ? d.remote
                                 : chaos.shard;
      const CrossShardCoordinator::Phase fire_at =
          chaos.point == ChaosSchedule::Point::kAfterPrepare
              ? CrossShardCoordinator::Phase::kAfterPrepare
              : CrossShardCoordinator::Phase::kAfterHomeCommit;
      hook = [this, victim, fire_at, &killed](CrossShardCoordinator::Phase phase,
                                              std::uint64_t) {
        if (phase != fire_at || killed != CrossShardCoordinator::kNoKill) {
          return killed;
        }
        // Snap the victim's links under the coordinator's latches; the
        // promotion runs after the coordinator returns.
        Shard& s = *shards_[victim];
        for (auto& b : s.backups) b->link->kill();
        s.primary_alive = false;
        killed = victim;
        return killed;
      };
      kill_pending = false;
    }

    const TxnOutcome out = run_one(d, hook);
    if (killed != CrossShardCoordinator::kNoKill) {
      promote(*shards_[killed]);
    }
    if (out.committed) {
      res.committed += 1;
      if (out.cross) res.cross_committed += 1;
    } else {
      res.chaos_aborted += 1;
    }
    res.trace.push_back(out);
  }

  // Finish the script: fire anything unfired and drain any open migration.
  while (next_op < script.ops.size() || migration_ != nullptr) {
    fire_due(txns + 1, std::numeric_limits<std::uint64_t>::max());
    migrate_tick(txns + 1);
  }

  res.takeovers = takeovers_;
  return res;
}

TxnDecision ShardedCluster::reroute_stale(const TxnDecision& decision) {
  TxnDecision d = decision;
  std::lock_guard<std::mutex> lock(map_mu_);
  if (d.map_version == 0 || d.map_version == map_.version()) return d;
  // The decision was planned against a superseded layout: abort it there
  // and retry against the live map in one step. The home re-routes by key;
  // a cross plan whose remote pick collided with the new home keeps the two
  // participants distinct by swapping in the old home.
  const ShardId home = map_.shard_of(hash_key(d.key));
  if (home != d.home) {
    rb_retried_2pc_.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter& retried_2pc = metrics::counter("shard.rebalance.retried_2pc");
    retried_2pc.add(1);
    if (d.cross && d.remote == home) d.remote = d.home;
    d.home = home;
  }
  d.map_version = map_.version();
  return d;
}

bool ShardedCluster::execute(const TxnDecision& decision) {
  return run_one(reroute_stale(decision), CrossShardCoordinator::ChaosHook{}).committed;
}

// ---------------------------------------------------------------------------
// Chaos: kill + promote
// ---------------------------------------------------------------------------

void ShardedCluster::kill_primary(ShardId id) {
  Shard& s = *shards_.at(id);
  VREP_CHECK(s.primary_alive);
  core::LatchGuard guard(s.latch);
  for (auto& b : s.backups) b->link->kill();
  s.primary_alive = false;
  promote(s);
}

bool ShardedCluster::decide_in_doubt(std::uint64_t xid) const {
  const ShardId home = CrossShardCoordinator::home_of(xid);
  const Shard& h = *shards_.at(home);
  // The decision record lives in the home shard's surviving image: the
  // primary's if it is alive, else any backup's — a 2-safe home commit made
  // the record durable on the backups before any phase-2 decide, so every
  // surviving copy agrees.
  const std::uint8_t* home_db =
      h.primary_alive ? h.db.data() : h.backups.front()->target.bytes.data();
  return coordinator_->decision_log().committed(home_db, xid);
}

void ShardedCluster::record_resolution(std::uint64_t xid, bool commit) {
  std::lock_guard<std::mutex> lock(audit_mu_);
  auto [it, inserted] = resolutions_.emplace(xid, commit);
  if (!inserted && it->second != commit) {
    resolution_conflicts_ += 1;  // a transaction resolved both ways — never
  }
}

void ShardedCluster::promote(Shard& s) {
  VREP_CHECK(!s.primary_alive);
  VREP_CHECK(!s.backups.empty() && "cannot promote a shard with no backups");
  takeovers_ += 1;
  static metrics::Counter& takeovers = metrics::counter("shard.takeovers");
  takeovers.add(1);

  // Resolve every buffered in-doubt transaction on every surviving replica
  // against the decision records BEFORE anyone serves traffic.
  for (auto& b : s.backups) {
    for (const std::uint64_t xid : b->applier.in_doubt_xids()) {
      const bool commit = decide_in_doubt(xid);
      record_resolution(xid, commit);
      VREP_CHECK(b->applier.resolve_in_doubt(xid, commit));
    }
  }

  // Promote backup 0 (inline delivery keeps every replica equally caught
  // up, so view order breaks the tie): its image becomes the primary image,
  // its takeover fences the dead primary's epoch.
  std::unique_ptr<Shard::Backup> winner = std::move(s.backups.front());
  s.backups.erase(s.backups.begin());
  const std::uint64_t prev_epoch = winner->applier.state_epoch();
  s.db = winner->target.bytes;
  s.committed = winner->applier.applied_seq();
  winner->membership->take_over();
  s.membership = std::move(winner->membership);
  s.pipeline = std::make_unique<repl::RedoPipeline>(
      s.source, nullptr, s.membership.get(),
      repl::RedoPipeline::Lineage{prev_epoch, s.committed}, config_.redo_history_bytes);
  s.primary_alive = true;

  // Re-adopt the surviving backups through the ordinary rejoin protocol.
  // Every adopt bumps the epoch, and a backup only learns a newer epoch from
  // its rejoin delta — so adopt ALL of them first (settling the epoch), then
  // serve the rejoins.
  readopt_backups(s);
}

// Attach fresh links, adopt every backup into the (possibly new) primary's
// view, then serve every rejoin at the settled epoch. Caller holds the
// shard latch (or owns the shard exclusively during a takeover).
void ShardedCluster::readopt_backups(Shard& s) {
  bool first = true;
  for (auto& b : s.backups) {
    b->link = std::make_unique<InlineLink>(&b->applier);
    if (first) {
      s.pipeline->attach_link(0, b->link.get());
      first = false;
    } else {
      s.pipeline->add_peer(b->link.get());
    }
    s.membership->adopt_backup(b->node_id);
  }
  for (std::size_t peer = 0; peer < s.backups.size(); ++peer) {
    auto& b = s.backups[peer];
    VREP_CHECK(b->applier.request_rejoin(b->link->reply_link()));
    VREP_CHECK(s.pipeline->handle_rejoin(peer, /*timeout_ms=*/10));
  }
  s.pipeline->set_two_safe(config_.two_safe && !s.backups.empty());
  s.pipeline->set_quorum(config_.quorum);
}

// ---------------------------------------------------------------------------
// Planned reconfiguration (no kill anywhere)
// ---------------------------------------------------------------------------

void ShardedCluster::handoff_primary(ShardId id) {
  Shard& s = *shards_.at(id);
  core::LatchGuard guard(s.latch);
  VREP_CHECK(s.primary_alive);
  VREP_CHECK(!s.backups.empty() && "handoff needs a backup to promote");
  VREP_CHECK(s.pipeline->in_doubt() == 0 && "drain 2PC before a planned handoff");

  // Quiesce: ship the tail and wait for EVERY peer (not just a quorum) to
  // acknowledge the full watermark, then prove the window is empty. After
  // this block nothing is in flight anywhere on the shard.
  VREP_CHECK(s.pipeline->drain_peers());
  for (const auto& b : s.backups) {
    VREP_CHECK(b->applier.applied_seq() == s.committed);
    VREP_CHECK(b->applier.in_doubt() == 0);
  }

  // Demote the old primary into a fresh backup seeded from its own image —
  // same bytes, same sequence, same lineage epoch — BEFORE the promotion
  // replaces s.db. Its node id is the old primary's, never reused.
  const std::uint64_t old_epoch = s.membership->view().epoch;
  auto demoted = std::make_unique<Shard::Backup>(s.membership->self(), config_.shard_db_size);
  demoted->applier.seed(s.db.data(), s.db.size(), s.committed, old_epoch);

  // Promote backup 0 exactly like a takeover, minus the takeover: no txn is
  // in doubt, no sequence is in flight, so nothing resolves through the
  // failure path and the epoch bump is the only visible change.
  std::unique_ptr<Shard::Backup> winner = std::move(s.backups.front());
  s.backups.erase(s.backups.begin());
  const std::uint64_t prev_epoch = winner->applier.state_epoch();
  s.db = winner->target.bytes;
  s.committed = winner->applier.applied_seq();
  winner->membership->take_over();
  s.membership = std::move(winner->membership);
  s.pipeline = std::make_unique<repl::RedoPipeline>(
      s.source, nullptr, s.membership.get(),
      repl::RedoPipeline::Lineage{prev_epoch, s.committed}, config_.redo_history_bytes);
  s.backups.push_back(std::move(demoted));

  // Re-adopt everyone — surviving backups AND the demoted primary — through
  // the ordinary rejoin protocol (adopts first so the epoch settles, then
  // the rejoins). All of them sit exactly at the takeover floor with the
  // fenced epoch's state, so every rejoin is an empty delta
  // (full_syncs_served stays 0 — the handoff ships no image).
  readopt_backups(s);

  rb_handoffs_.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter& handoffs = metrics::counter("shard.rebalance.handoffs");
  handoffs.add(1);
}

void ShardedCluster::add_backup(ShardId id) {
  Shard& s = *shards_.at(id);
  core::LatchGuard guard(s.latch);
  VREP_CHECK(s.primary_alive);
  auto backup = std::make_unique<Shard::Backup>(s.next_node++, config_.shard_db_size);
  backup->link = std::make_unique<InlineLink>(&backup->applier);
  if (s.backups.empty()) {
    s.pipeline->attach_link(0, backup->link.get());
  } else {
    s.pipeline->add_peer(backup->link.get());
  }
  s.membership->adopt_backup(backup->node_id);
  s.backups.push_back(std::move(backup));
  // Adopting the newcomer bumped the epoch, and a backup only learns a
  // newer epoch from a sync-start frame — so EVERY backup rejoins at the
  // settled epoch: the new one syncs its image (the honest cost of growing
  // the replica set), the old ones get an empty delta carrying the epoch.
  for (std::size_t peer = 0; peer < s.backups.size(); ++peer) {
    auto& b = s.backups[peer];
    VREP_CHECK(b->applier.request_rejoin(b->link->reply_link()));
    VREP_CHECK(s.pipeline->handle_rejoin(peer, /*timeout_ms=*/10));
  }
  s.pipeline->set_two_safe(config_.two_safe && !s.backups.empty());
  s.pipeline->set_quorum(config_.quorum);
  rb_backup_adds_.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter& backup_adds = metrics::counter("shard.rebalance.backup_adds");
  backup_adds.add(1);
}

ShardedCluster::RebalanceCounters ShardedCluster::rebalance_counters() const {
  RebalanceCounters c;
  c.bytes_moved = rb_bytes_moved_.load(std::memory_order_relaxed);
  c.records_moved = rb_records_moved_.load(std::memory_order_relaxed);
  c.chunks = rb_chunks_.load(std::memory_order_relaxed);
  c.retried_2pc = rb_retried_2pc_.load(std::memory_order_relaxed);
  c.cutover_stall_ns = rb_cutover_stall_ns_.load(std::memory_order_relaxed);
  c.cutovers = rb_cutovers_.load(std::memory_order_relaxed);
  c.handoffs = rb_handoffs_.load(std::memory_order_relaxed);
  c.backup_adds = rb_backup_adds_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

const std::uint8_t* ShardedCluster::primary_db(ShardId id) const {
  return shards_.at(id)->db.data();
}
std::uint64_t ShardedCluster::shard_committed(ShardId id) const {
  return shards_.at(id)->committed;
}
std::uint64_t ShardedCluster::shard_epoch(ShardId id) const {
  return shards_.at(id)->membership->view().epoch;
}
std::size_t ShardedCluster::backup_count(ShardId id) const {
  return shards_.at(id)->backups.size();
}
const std::uint8_t* ShardedCluster::backup_db(ShardId id, std::size_t backup) const {
  return shards_.at(id)->backups.at(backup)->target.bytes.data();
}
std::uint64_t ShardedCluster::backup_applied(ShardId id, std::size_t backup) const {
  return shards_.at(id)->backups.at(backup)->applier.applied_seq();
}
std::size_t ShardedCluster::in_doubt(ShardId id) const {
  const Shard& s = *shards_.at(id);
  std::size_t n = s.pipeline->in_doubt();
  for (const auto& b : s.backups) n += b->applier.in_doubt();
  return n;
}
std::uint64_t ShardedCluster::full_syncs_served(ShardId id) const {
  return shards_.at(id)->pipeline->stats().full_syncs_served;
}

std::uint32_t ShardedCluster::shard_crc(ShardId id) const {
  return Crc32::of(shards_.at(id)->db.data(), workload_bytes_);
}

std::string ShardedCluster::check_replicas(ShardId id) const {
  const Shard& s = *shards_.at(id);
  for (std::size_t b = 0; b < s.backups.size(); ++b) {
    const auto& backup = *s.backups[b];
    if (backup.applier.applied_seq() != s.committed) {
      return "shard " + std::to_string(id) + " backup " + std::to_string(b) +
             " applied " + std::to_string(backup.applier.applied_seq()) + " != committed " +
             std::to_string(s.committed);
    }
    if (std::memcmp(backup.target.bytes.data(), s.db.data(), s.db.size()) != 0) {
      return "shard " + std::to_string(id) + " backup " + std::to_string(b) +
             " image diverges from the primary";
    }
  }
  return {};
}

std::string ShardedCluster::check_global_consistency() const {
  wl::DebitCredit::BalanceSums total;
  for (unsigned i = 0; i < num_shards(); ++i) {
    const wl::DebitCredit::BalanceSums sums = workload_.balance_sums(shards_[i]->db.data());
    total.accounts += sums.accounts;
    total.tellers += sums.tellers;
    total.branches += sums.branches;
  }
  if (total.accounts != total.tellers || total.tellers != total.branches) {
    return "global balance sums diverge: accounts=" + std::to_string(total.accounts) +
           " tellers=" + std::to_string(total.tellers) +
           " branches=" + std::to_string(total.branches);
  }
  return {};
}

}  // namespace vrep::shard
