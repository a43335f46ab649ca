#include "shard/coordinator.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::shard {

CrossShardCoordinator::Outcome CrossShardCoordinator::commit(
    const Participant& home, std::vector<RemoteOp> remotes,
    const WriteGen& home_writes, std::uint64_t xid, const ChaosHook& chaos) {
  VREP_CHECK(!remotes.empty());
  std::sort(remotes.begin(), remotes.end(),
            [](const RemoteOp& a, const RemoteOp& b) { return a.shard.id < b.shard.id; });
  for (const RemoteOp& r : remotes) VREP_CHECK(r.shard.id != home.id);

  // Latch every participant in ascending shard-id order (remotes are sorted
  // by id; merge the home shard into its place).
  std::vector<core::Latch*> latches;
  latches.reserve(remotes.size() + 1);
  {
    bool home_taken = false;
    std::size_t r = 0;
    while (!home_taken || r < remotes.size()) {
      if (!home_taken && (r >= remotes.size() || home.id < remotes[r].shard.id)) {
        latches.push_back(home.latch);
        home_taken = true;
      } else {
        latches.push_back(remotes[r].shard.latch);
        ++r;
      }
    }
  }
  for (core::Latch* l : latches) l->lock();

  Outcome out;
  // Phase 1: stage each remote's writes as an in-doubt prepare. The remote
  // image is untouched until the decision (deferred apply).
  std::vector<std::vector<Write>> remote_writes;
  remote_writes.reserve(remotes.size());
  for (const RemoteOp& r : remotes) {
    remote_writes.push_back(r.writes());  // under the latches
    repl::RedoPipeline& rp = *r.shard.pipeline;
    rp.begin();
    for (const Write& w : remote_writes.back()) {
      rp.stage(w.off, w.bytes.data(), w.bytes.size());
    }
    const std::uint64_t seq = *r.shard.committed + 1;
    *r.shard.committed = seq;  // the sequence is consumed at prepare
    rp.prepare_cross(seq, xid);
    out.remote_seqs.push_back(seq);
  }
  out.prepared = true;
  static metrics::Counter& prepares = metrics::counter("shard.coord.prepares");
  prepares.add(remotes.size());

  ShardId dead = kNoKill;
  if (chaos) dead = chaos(Phase::kAfterPrepare, xid);
  if (dead != kNoKill) {
    // A participant died before the commit point: presumed abort. No
    // decision record will ever exist, so live remotes are resolved here
    // and dead ones resolve identically at takeover.
    for (const RemoteOp& r : remotes) {
      if (r.shard.id == dead) continue;
      r.shard.pipeline->decide_cross(xid, false);
      out.decided.push_back(r.shard.id);
    }
    static metrics::Counter& aborts = metrics::counter("shard.coord.aborts");
    aborts.add(1);
    for (auto it = latches.rbegin(); it != latches.rend(); ++it) (*it)->unlock();
    return out;
  }

  // Commit point: one ordinary home-shard commit carries the workload
  // writes and the decision record. 2-safe, this returns quorum-covered —
  // the decision survives any single failure before phase 2 runs.
  {
    repl::RedoPipeline& hp = *home.pipeline;
    hp.begin();
    for (const Write& w : home_writes()) {
      hp.stage(w.off, w.bytes.data(), w.bytes.size());
      std::memcpy(home.db + w.off, w.bytes.data(), w.bytes.size());
    }
    std::uint8_t slot[DecisionLog::kSlotBytes];
    DecisionLog::encode_commit(slot, xid);
    const std::uint64_t slot_off = dlog_.slot_off(xid);
    hp.stage(slot_off, slot, sizeof slot);
    std::memcpy(home.db + slot_off, slot, sizeof slot);
    const std::uint64_t seq = *home.committed + 1;
    *home.committed = seq;
    hp.commit(seq);
    out.home_seq = seq;
    out.committed = true;
  }

  if (chaos) dead = chaos(Phase::kAfterHomeCommit, xid);
  // dead == home: the decision is already durable on the home backups;
  // phase 2 proceeds through the surviving remote paths regardless.

  // Phase 2: release in shard-sequence (ascending id) order — apply the
  // deferred bytes and resolve each remote's prepare. A dead remote
  // resolves at takeover against the decision record instead.
  for (std::size_t i = 0; i < remotes.size(); ++i) {
    const RemoteOp& r = remotes[i];
    if (r.shard.id == dead) continue;
    for (const Write& w : remote_writes[i]) {
      std::memcpy(r.shard.db + w.off, w.bytes.data(), w.bytes.size());
    }
    r.shard.pipeline->decide_cross(xid, true);
    out.decided.push_back(r.shard.id);
  }
  static metrics::Counter& commits = metrics::counter("shard.coord.commits");
  commits.add(1);

  for (auto it = latches.rbegin(); it != latches.rend(); ++it) (*it)->unlock();
  return out;
}

}  // namespace vrep::shard
