#include "repl/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

namespace {
constexpr std::size_t kDbChunkBytes = 256 * 1024;

// A 2-safe commit probes with heartbeats while waiting for the covering
// acknowledgments; sustained silence on a peer degrades that peer to down.
// When the live set can no longer reach quorum, the commit degrades to
// 1-safe (the transaction is locally durable either way) and the outcome
// says so.
constexpr int kTwoSafeRecvTimeoutMs = 250;
constexpr int kTwoSafeMaxProbes = 20;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

// Applier counters bumped from several sites. Each resolves its name on the
// first bump, like the single-site statics elsewhere in this file.
metrics::Counter& duplicates_ignored() {
  static metrics::Counter& c = metrics::counter("repl.backup.duplicates_ignored");
  return c;
}
metrics::Counter& gaps_detected() {
  static metrics::Counter& c = metrics::counter("repl.backup.gaps_detected");
  return c;
}
metrics::Counter& batches_applied() {
  static metrics::Counter& c = metrics::counter("repl.backup.batches_applied");
  return c;
}
metrics::Counter& corrupt_skipped() {
  static metrics::Counter& c = metrics::counter("repl.backup.corrupt_skipped");
  return c;
}
metrics::Counter& resyncs() {
  static metrics::Counter& c = metrics::counter("repl.backup.resyncs");
  return c;
}
}  // namespace

// ---------------------------------------------------------------------------
// Batch codec
// ---------------------------------------------------------------------------

bool batch_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size) {
  if (size < 8) return false;
  std::size_t at = 8;
  while (at < size) {
    if (at + 8 > size) return false;
    std::uint32_t off, len;
    std::memcpy(&off, payload + at, 4);
    std::memcpy(&len, payload + at + 4, 4);
    at += 8;
    if (at + len > size || off + std::uint64_t{len} > db_size) return false;
    at += len;
  }
  return true;
}

std::uint64_t batch_seq(const std::uint8_t* payload) {
  std::uint64_t seq;
  std::memcpy(&seq, payload, 8);
  return seq;
}

bool BatchReader::next(RedoChunk* out) {
  if (at_ + 8 > size_) return false;
  std::uint32_t off, len;
  std::memcpy(&off, payload_ + at_, 4);
  std::memcpy(&len, payload_ + at_ + 4, 4);
  at_ += 8;
  out->db_off = off;
  out->len = len;
  out->data = payload_ + at_;
  at_ += len;
  return true;
}

bool group_valid(const std::uint8_t* payload, std::size_t size, std::size_t db_size) {
  if (size < 4) return false;
  std::uint32_t count;
  std::memcpy(&count, payload, 4);
  if (count < 1) return false;
  std::size_t at = 4;
  std::uint64_t expect_seq = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (at + 4 > size) return false;
    std::uint32_t len;
    std::memcpy(&len, payload + at, 4);
    at += 4;
    if (len < 8 || at + len > size) return false;
    if (!batch_valid(payload + at, len, db_size)) return false;
    const std::uint64_t seq = batch_seq(payload + at);
    if (i == 0) {
      expect_seq = seq;
    } else if (seq != expect_seq) {
      return false;  // sub-batches must be contiguous ascending
    }
    expect_seq = seq + 1;
    at += len;
  }
  return at == size;
}

GroupReader::GroupReader(const std::uint8_t* payload, std::size_t size)
    : payload_(payload), size_(size) {
  std::memcpy(&count_, payload, 4);
}

bool GroupReader::next(const std::uint8_t** batch, std::size_t* len) {
  if (at_ + 4 > size_) return false;
  std::uint32_t sub_len;
  std::memcpy(&sub_len, payload_ + at_, 4);
  at_ += 4;
  *batch = payload_ + at_;
  *len = sub_len;
  at_ += sub_len;
  return true;
}

// ---------------------------------------------------------------------------
// RedoPipeline
// ---------------------------------------------------------------------------

RedoPipeline::RedoPipeline(Source& source, ReplicationLink* link,
                           cluster::Membership* membership, Lineage lineage,
                           std::size_t redo_history_bytes)
    : source_(source), membership_(membership), lineage_(lineage),
      history_capacity_(redo_history_bytes) {
  add_peer(link);
}

std::size_t RedoPipeline::add_peer(ReplicationLink* link) {
  const std::size_t index = peers_.size();
  PeerSlot slot;
  slot.link = link;
  slot.alive = link != nullptr && link->connected();
  const std::string prefix = "repl.primary.peer" + std::to_string(index);
  slot.shipped = &metrics::counter(prefix + ".txns_shipped");
  slot.acked = &metrics::gauge(prefix + ".acked_seq");
  peers_.push_back(slot);
  recompute_quorum_acked();  // the table grew: the K-th watermark may drop
  return index;
}

void RedoPipeline::attach_link(std::size_t peer, ReplicationLink* link) {
  PeerSlot& p = peers_[peer];
  p.link = link;
  p.alive = link != nullptr && link->connected();
}

void RedoPipeline::remove_peer(std::size_t peer) {
  PeerSlot& p = peers_[peer];
  p.link = nullptr;
  p.alive = false;
  p.acked_seq = 0;
  p.acked->set(0);
  recompute_quorum_acked();
}

std::size_t RedoPipeline::live_peers() const {
  std::size_t n = 0;
  for (const PeerSlot& p : peers_) {
    if (p.alive) n++;
  }
  return n;
}

bool RedoPipeline::connection_alive() const {
  for (const PeerSlot& p : peers_) {
    if (p.alive) return true;
  }
  return false;
}

std::uint64_t RedoPipeline::backup_acked_seq() const {
  std::uint64_t best = 0;
  for (const PeerSlot& p : peers_) best = std::max(best, p.acked_seq);
  return best;
}

void RedoPipeline::recompute_quorum_acked() {
  // K-th highest acknowledged sequence: everything at or below it has been
  // acknowledged by at least `quorum_` peers. This full scan runs only when
  // an ack advances or the peer table / quorum changes; every other query
  // reads the cache (repl.primary.quorum_scans counts the scans).
  static metrics::Counter& quorum_scans = metrics::counter("repl.primary.quorum_scans");
  quorum_scans.add(1);
  if (peers_.size() < quorum_) {
    quorum_acked_cache_ = 0;
    return;
  }
  std::vector<std::uint64_t> acks;
  acks.reserve(peers_.size());
  for (const PeerSlot& p : peers_) acks.push_back(p.acked_seq);
  std::sort(acks.begin(), acks.end(), std::greater<>());
  quorum_acked_cache_ = acks[quorum_ - 1];
}

void RedoPipeline::set_quorum(unsigned k) {
  VREP_CHECK(k >= 1);
  quorum_ = k;
  recompute_quorum_acked();
}

void RedoPipeline::set_group_size(unsigned g) {
  VREP_CHECK(g >= 1);
  // Shrinking the group below what is already buffered would strand the
  // excess; flush first so the new size applies cleanly from here on.
  if (pending_group_.size() >= g) ship_group();
  group_size_ = g;
}

void RedoPipeline::set_commit_window(unsigned w) {
  VREP_CHECK(w >= 1);
  window_ = w;
}

bool RedoPipeline::link_send(PeerSlot& peer, FrameKind kind, const void* payload,
                             std::size_t len) {
  if (peer.link == nullptr) return false;
  return peer.link->send(kind, epoch(), payload, len);
}

void RedoPipeline::begin() {
  batch_.clear();
  batch_.resize(8);  // sequence filled in at commit
  if (ckpt_enabled_) staged_spans_.clear();
}

void RedoPipeline::stage(std::uint64_t off, const void* src, std::size_t len) {
  // Offsets and lengths are u32 on the wire (see the batch-format comment in
  // pipeline.hpp): a silent cast would wrap redo for databases >= 4 GiB into
  // the wrong pages on every backup. Refuse loudly instead.
  VREP_CHECK(off + std::uint64_t{len} <= (std::uint64_t{1} << 32) &&
             "redo chunk exceeds the u32 batch wire format (4 GiB)");
  append_u32(batch_, static_cast<std::uint32_t>(off));
  append_u32(batch_, static_cast<std::uint32_t>(len));
  const std::size_t at = batch_.size();
  batch_.resize(at + len);
  std::memcpy(batch_.data() + at, src, len);
  if (ckpt_enabled_) staged_spans_.emplace_back(off, static_cast<std::uint32_t>(len));
}

void RedoPipeline::discard() {
  batch_.clear();
  if (ckpt_enabled_) staged_spans_.clear();
}

void RedoPipeline::fence(std::uint64_t newer_epoch) {
  fenced_ = true;
  fenced_by_epoch_ = newer_epoch;
  for (PeerSlot& p : peers_) p.alive = false;
  static metrics::Counter& fenced = metrics::counter("repl.primary.fenced");
  fenced.add(1);
}

void RedoPipeline::on_control_frame(PeerSlot& peer, const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kConsumerAck:
      if (frame.payload.size() == 8 && (membership_ == nullptr || frame.epoch == epoch())) {
        std::uint64_t v;
        std::memcpy(&v, frame.payload.data(), 8);
        if (v > peer.acked_seq) {
          peer.acked_seq = v;
          peer.acked->set(static_cast<std::int64_t>(v));
          recompute_quorum_acked();
        }
      }
      break;
    case FrameKind::kEpochFence: {
      if (frame.payload.size() != 8) break;
      std::uint64_t e;
      std::memcpy(&e, frame.payload.data(), 8);
      if (e > epoch()) {
        // Someone took over in a newer epoch while we were out: stop
        // shipping immediately; the caller demotes us and rejoins.
        fence(e);
      }
      break;
    }
    case FrameKind::kRejoinRequest: {
      if (frame.payload.size() != 24) break;
      if (membership_ != nullptr && frame.epoch > epoch()) {
        fence(frame.epoch);
        break;
      }
      std::uint64_t seq, node, state_epoch;
      std::memcpy(&seq, frame.payload.data(), 8);
      std::memcpy(&node, frame.payload.data() + 8, 8);
      std::memcpy(&state_epoch, frame.payload.data() + 16, 8);
      serve_rejoin(peer, seq, node, state_epoch);
      break;
    }
    default:
      break;
  }
}

void RedoPipeline::drain(PeerSlot& peer) {
  // Consume whatever the backup sent back: acks (flow control), in-band
  // rejoin requests (sequence-gap resync), and epoch fences. Leaving them
  // unread would eventually fill the carrier's buffers and, on close, make
  // a TCP kernel RST the connection under the backup's feet.
  while (peer.alive) {
    auto frame = peer.link->recv(0);
    if (!frame.has_value()) {
      if (peer.link->last_error() == LinkError::kCorrupt && peer.link->connected()) {
        continue;  // skip an aligned corrupt inbound frame
      }
      if (peer.link->last_error() == LinkError::kClosed) peer.alive = false;
      break;
    }
    on_control_frame(peer, *frame);
  }
}

void RedoPipeline::wait_covered(std::uint64_t target) {
  // Push the shipped frames all the way onto every carrier, then probe: the
  // heartbeat carries our shipped sequence, and a caught-up backup answers
  // it with an immediate ack (a behind one requests resync, which
  // serve_rejoin repairs right here in the wait loop).
  // Wait accounting: co-simulated carriers report their blocking time in
  // virtual nanoseconds, which keeps the metric byte-stable across runs;
  // only when every link is wall-clock do we fall back to measuring wall
  // time ourselves.
  const auto virtual_wait = [&]() -> std::optional<std::uint64_t> {
    std::optional<std::uint64_t> total;
    for (const PeerSlot& p : peers_) {
      if (p.link == nullptr) continue;
      if (const auto ns = p.link->blocked_wait_ns(); ns.has_value()) {
        total = total.value_or(0) + *ns;
      }
    }
    return total;
  };
  const std::optional<std::uint64_t> virt0 = virtual_wait();
  const auto t0 = std::chrono::steady_clock::now();
  for (PeerSlot& p : peers_) {
    if (p.link != nullptr) p.link->flush();
  }
  const auto probe = [&](PeerSlot& p) {
    const std::uint64_t shipped = shipped_watermark();
    if (p.alive && !fenced_ && !link_send(p, FrameKind::kHeartbeat, &shipped, 8)) {
      p.alive = false;
    }
  };
  for (PeerSlot& p : peers_) {
    probe(p);
    p.silent = 0;
  }
  while (!fenced_ && quorum_acked_cache_ < target) {
    bool any_waiting = false;
    for (PeerSlot& p : peers_) {
      if (fenced_ || quorum_acked_cache_ >= target) break;
      if (!p.alive || p.acked_seq >= target) continue;
      any_waiting = true;
      auto frame = p.link->recv(kTwoSafeRecvTimeoutMs);
      if (!frame.has_value()) {
        switch (p.link->last_error()) {
          case LinkError::kTimeout:
            // The probe (or the ack answering it) may have been lost.
            if (++p.silent > kTwoSafeMaxProbes) {
              p.alive = false;
              break;
            }
            probe(p);
            continue;
          case LinkError::kCorrupt:
            if (p.link->connected()) continue;
            p.alive = false;
            break;
          default:
            p.alive = false;
            break;
        }
        continue;
      }
      p.silent = 0;
      on_control_frame(p, *frame);
    }
    // Every laggard peer is down: no further acks can arrive, so the commit
    // degrades to whatever coverage it already has.
    if (!any_waiting) break;
  }
  const std::optional<std::uint64_t> virt1 = virtual_wait();
  static metrics::Counter& commit_wait_ns = metrics::counter("repl.primary.commit_wait_ns");
  commit_wait_ns.add(virt1.has_value()
                         ? *virt1 - virt0.value_or(0)
                         : static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count()));
  // Coverage unreachable (peers dead/silent or we were fenced): resolve
  // every outstanding ticket now instead of leaving the window dangling.
  if (quorum_acked_cache_ < target) note_degraded();
}

void RedoPipeline::note_degraded() {
  // Every ticket up to the newest one resolves: quorum-covered ones durable,
  // the rest degraded (locally durable only). Counted per newly degraded
  // transaction so the classic one-commit-at-a-time path still counts one
  // per degraded commit.
  const std::uint64_t resolved = std::max(degraded_upto_, quorum_acked_cache_);
  if (last_ticket_seq_ <= resolved) return;
  const std::uint64_t newly = last_ticket_seq_ - resolved;
  degraded_upto_ = last_ticket_seq_;
  stats_.two_safe_degraded += newly;
  static metrics::Counter& two_safe_degraded = metrics::counter("repl.primary.two_safe_degraded");
  two_safe_degraded.add(newly);
}

void RedoPipeline::push_history(std::uint64_t seq) {
  history_.push_back({seq, batch_});
  history_bytes_ += batch_.size();
  while (history_bytes_ > history_capacity_ && !history_.empty()) {
    history_bytes_ -= history_.front().batch.size();
    history_.pop_front();
  }
}

void RedoPipeline::enable_checkpoints(std::uint64_t interval_txns,
                                      std::size_t copy_bytes_per_commit) {
  VREP_CHECK(interval_txns >= 1 && copy_bytes_per_commit >= 1);
  VREP_CHECK(in_doubt_.empty() &&
             "fuzzy checkpoints do not compose with cross-shard prepares yet");
  ckpt_enabled_ = true;
  ckpt_interval_ = interval_txns;
  ckpt_copy_bytes_ = copy_bytes_per_commit;
  // Dirtiness is only tracked from here on: a checkpoint+delta can repair a
  // rejoiner whose sequence is at or above this floor (older states may hold
  // stale pages we never recorded as dirty).
  ckpt_anchor_ = source_.committed_seq();
  dirty_floor_ = ckpt_anchor_;
  page_seq_.assign((source_.db_size() + kCkptPageBytes - 1) / kCkptPageBytes, 0);
}

void RedoPipeline::step_checkpoint(std::uint64_t seq) {
  // Dirty-page accounting first, so a completion below snapshots a table
  // that already includes this commit's writes.
  for (const auto& [off, len] : staged_spans_) {
    const std::size_t first = off / kCkptPageBytes;
    const std::size_t last = (off + len - 1) / kCkptPageBytes;
    for (std::size_t p = first; p <= last; ++p) page_seq_[p] = seq;
  }
  if (!ckpt_building_) {
    if (seq < ckpt_anchor_ + ckpt_interval_) {
      staged_spans_.clear();
      return;
    }
    ckpt_building_ = true;
    ckpt_build_.resize(source_.db_size());
    ckpt_snap_.reset(source_.db(), source_.db_size());
  }
  // Fuzzy rule: the background copy only ever reads committed state (this
  // runs between transactions), and writes landing behind the copy cursor
  // are patched into the build immediately — so when the cursor reaches the
  // end at commit S, the build equals the database image at exactly S.
  const std::uint8_t* db = source_.db();
  for (const auto& [off, len] : staged_spans_) {
    if (off >= ckpt_snap_.offset()) continue;
    const std::size_t patch = std::min<std::size_t>(len, ckpt_snap_.offset() - off);
    std::memcpy(ckpt_build_.data() + off, db + off, patch);
  }
  ckpt_snap_.step(ckpt_build_.data(), ckpt_copy_bytes_);
  if (ckpt_snap_.done()) complete_checkpoint(seq);
  staged_spans_.clear();
}

void RedoPipeline::complete_checkpoint(std::uint64_t seq) {
  ckpt_building_ = false;
  ckpt_image_.swap(ckpt_build_);
  ckpt_ = Checkpoint{seq, epoch(), Crc32::of(ckpt_image_.data(), ckpt_image_.size()), true};
  ckpt_page_seq_ = page_seq_;
  ckpt_anchor_ = seq;
  stats_.checkpoints_completed++;
  static metrics::Counter& checkpoints = metrics::counter("repl.primary.checkpoints");
  checkpoints.add(1);
  // Truncate redo history at the watermark: everything at or below it is now
  // reachable through checkpoint+delta, so dropping it cannot push a
  // checkpoint-covered laggard off a full-image cliff.
  std::size_t truncated = 0;
  while (!history_.empty() && history_.front().seq <= seq) {
    truncated += history_.front().batch.size();
    history_.pop_front();
  }
  history_bytes_ -= truncated;
  stats_.redo_truncated_bytes += truncated;
  static metrics::Counter& redo_truncated_bytes =
      metrics::counter("repl.primary.redo_truncated_bytes");
  redo_truncated_bytes.add(truncated);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> RedoPipeline::checkpoint_delta_runs(
    std::uint64_t backup_seq) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  const std::size_t db_size = ckpt_image_.size();
  const std::size_t pages = ckpt_page_seq_.size();
  std::size_t p = 0;
  while (p < pages) {
    if (ckpt_page_seq_[p] <= backup_seq) {
      p++;
      continue;
    }
    std::size_t q = p;
    while (q < pages && ckpt_page_seq_[q] > backup_seq &&
           (q - p) * kCkptPageBytes < kDbChunkBytes) {
      q++;
    }
    const std::uint64_t off = p * kCkptPageBytes;
    runs.emplace_back(off, std::min(db_size, q * kCkptPageBytes) - off);
    p = q;
  }
  return runs;
}

bool RedoPipeline::serve_checkpoint_delta(PeerSlot& peer, std::uint64_t backup_seq) {
  const auto runs = checkpoint_delta_runs(backup_seq);
  // kCkptBegin: u64 watermark seq | u64 db_size | u32 image crc | u32 chunks.
  std::uint8_t begin[24];
  const std::uint64_t size = ckpt_image_.size();
  const std::uint32_t count = static_cast<std::uint32_t>(runs.size());
  std::memcpy(begin, &ckpt_.seq, 8);
  std::memcpy(begin + 8, &size, 8);
  std::memcpy(begin + 16, &ckpt_.crc, 4);
  std::memcpy(begin + 20, &count, 4);
  if (!link_send(peer, FrameKind::kCkptBegin, begin, sizeof begin)) {
    peer.alive = false;
    return false;
  }
  std::vector<std::uint8_t> chunk;
  std::uint64_t shipped_bytes = 0;
  for (const auto& [off, len] : runs) {
    chunk.clear();
    chunk.resize(8);
    std::memcpy(chunk.data(), &off, 8);
    chunk.insert(chunk.end(), ckpt_image_.data() + off, ckpt_image_.data() + off + len);
    if (!link_send(peer, FrameKind::kCkptChunk, chunk.data(), chunk.size())) {
      peer.alive = false;
      return false;
    }
    shipped_bytes += len;
  }
  // kCkptEnd: u64 watermark seq | u32 image crc.
  std::uint8_t end[12];
  std::memcpy(end, &ckpt_.seq, 8);
  std::memcpy(end + 8, &ckpt_.crc, 4);
  if (!link_send(peer, FrameKind::kCkptEnd, end, sizeof end)) {
    peer.alive = false;
    return false;
  }
  static metrics::Counter& checkpoint_bytes_shipped =
      metrics::counter("repl.primary.checkpoint_bytes_shipped");
  checkpoint_bytes_shipped.add(shipped_bytes);
  peer.alive = true;
  return true;
}

void RedoPipeline::ship_group() {
  if (pending_group_.empty()) return;
  const std::size_t count = pending_group_.size();
  // A single-transaction group ships as the classic kRedoBatch frame,
  // byte-identical to the ungrouped stream; 2+ coalesce into one kRedoGroup
  // frame that every backend delivers (and applies) atomically.
  FrameKind kind = FrameKind::kRedoBatch;
  const std::uint8_t* payload = pending_group_[0].batch.data();
  std::size_t payload_len = pending_group_[0].batch.size();
  std::vector<std::uint8_t> group;
  if (count > 1) {
    kind = FrameKind::kRedoGroup;
    append_u32(group, static_cast<std::uint32_t>(count));
    for (const PendingTxn& txn : pending_group_) {
      append_u32(group, static_cast<std::uint32_t>(txn.batch.size()));
      group.insert(group.end(), txn.batch.begin(), txn.batch.end());
    }
    payload = group.data();
    payload_len = group.size();
  }
  // Fire and forget to every live peer; a send failure marks that peer down
  // but never blocks or fails the local commits (1-safe semantics — the
  // 2-safe wait is the caller's window backpressure).
  bool shipped = false;
  for (PeerSlot& p : peers_) {
    if (!p.alive || fenced_) continue;
    if (link_send(p, kind, payload, payload_len)) {
      p.shipped->add(static_cast<std::uint64_t>(count));
      shipped = true;
    } else {
      p.alive = false;
    }
  }
  shipped_seq_ = pending_group_.back().seq;
  if (shipped) {
    stats_.txns_shipped += count;
    static metrics::Counter& txns_shipped = metrics::counter("repl.primary.txns_shipped");
    txns_shipped.add(count);
  }
  for (PeerSlot& p : peers_) {
    if (p.alive) drain(p);
  }
  static metrics::Timer& group_size = metrics::timer("repl.primary.group_size");
  group_size.record(count);
  const std::uint64_t in_flight =
      shipped_seq_ - std::min(shipped_seq_, quorum_acked_cache_);
  static metrics::Gauge& inflight_window = metrics::gauge("repl.primary.inflight_window");
  inflight_window.update_max(static_cast<std::int64_t>(in_flight));
  pending_group_.clear();
}

std::uint64_t RedoPipeline::shipped_watermark() const {
  // What heartbeats claim: the committed prefix that has actually been
  // handed to the carriers. Transactions buffered in an unshipped group must
  // not make a caught-up backup think it has a gap — but a pipeline attached
  // to pre-existing committed state (nothing shipped, nothing pending) still
  // claims that state so a behind backup notices and resyncs.
  return source_.committed_seq() - pending_group_.size();
}

std::uint64_t RedoPipeline::window_target() const {
  // The commit may proceed while at most window_-1 shipped sequences are
  // unacked, i.e. acks must cover everything older than the newest
  // window_-1. W=1 target == shipped_seq_: the classic full block.
  return shipped_seq_ - std::min<std::uint64_t>(shipped_seq_, window_ - 1);
}

RedoPipeline::CommitOutcome RedoPipeline::outcome_of(std::uint64_t seq) const {
  switch (ticket_state(CommitTicket{seq})) {
    case TicketState::kDurable:
      // Durable via quorum coverage in 2-safe mode is the quorum guarantee;
      // a 1-safe commit only ever promises local durability (even if acks
      // happen to cover it).
      return (two_safe_ && seq <= quorum_acked_cache_) ? CommitOutcome::kQuorumDurable
                                                       : CommitOutcome::kLocalDurable;
    case TicketState::kDegraded:
    case TicketState::kLost:
      return CommitOutcome::kTwoSafeDegraded;
    case TicketState::kPending:
      break;
  }
  return CommitOutcome::kPending;
}

RedoPipeline::TicketState RedoPipeline::ticket_state(CommitTicket ticket) const {
  const std::uint64_t seq = ticket.seq;
  if (seq <= quorum_acked_cache_) return TicketState::kDurable;
  if (seq <= local_resolved_upto_) return TicketState::kDurable;  // 1-safe commit
  if (fenced_) return TicketState::kLost;  // committed past a lost lineage's fence
  if (seq <= degraded_upto_) return TicketState::kDegraded;
  return TicketState::kPending;
}

void RedoPipeline::poll_acks() {
  const std::uint64_t shipped = shipped_watermark();
  for (PeerSlot& peer : peers_) {
    if (!peer.alive) continue;
    drain(peer);
    // An applier acks in answer to a probe carrying our shipped watermark
    // (wait_covered's protocol), not per applied batch — so a lagging peer
    // must be probed here or an async caller would poll forever.
    if (peer.alive && !fenced_ && peer.acked_seq < shipped &&
        !link_send(peer, FrameKind::kHeartbeat, &shipped, 8)) {
      peer.alive = false;
    }
  }
}

RedoPipeline::CommitTicket RedoPipeline::commit_async(std::uint64_t seq) {
  std::memcpy(batch_.data(), &seq, 8);
  // Retain the batch even while every link is down or we are fenced: a later
  // rejoin (ours or a backup's) replays from this history.
  push_history(seq);
  if (ckpt_enabled_) step_checkpoint(seq);
  pending_group_.push_back(PendingTxn{seq, std::move(batch_)});
  batch_.clear();
  last_ticket_seq_ = seq;
  if (pending_group_.size() >= group_size_) ship_group();
  CommitOutcome outcome = CommitOutcome::kLocalDurable;
  if (!two_safe_) {
    // 1-safe: locally durable the moment the local store committed; the
    // ticket resolves immediately.
    local_resolved_upto_ = seq;
  } else {
    // 2-safe: the bounded in-flight window is the backpressure. With W=1 we
    // take the classic path unconditionally whenever this commit shipped its
    // own sequence (flush + probe + wait until covered — byte-identical to
    // the historical blocking commit); a wider window blocks only once more
    // than W-1 shipped sequences are unacked.
    if (window_ == 1) {
      if (shipped_seq_ == seq) wait_covered(seq);
    } else if (shipped_seq_ > 0 && window_target() > quorum_acked_cache_) {
      wait_covered(window_target());
    }
    outcome = outcome_of(seq);
  }
  last_commit_outcome_ = outcome;
  return CommitTicket{seq};
}

RedoPipeline::CommitOutcome RedoPipeline::wait(CommitTicket ticket) {
  VREP_CHECK(ticket.seq <= last_ticket_seq_ && "wait() on a ticket never issued");
  // Already resolved: answer from the watermarks without touching any link.
  if (ticket_state(ticket) == TicketState::kPending) {
    // The covering group may still be buffered; ship it before waiting.
    if (!pending_group_.empty() && pending_group_.front().seq <= ticket.seq) ship_group();
    if (two_safe_ && ticket.seq > quorum_acked_cache_) wait_covered(ticket.seq);
  }
  const CommitOutcome outcome = outcome_of(ticket.seq);
  last_commit_outcome_ = outcome;
  return outcome;
}

RedoPipeline::CommitOutcome RedoPipeline::sync() {
  ship_group();
  if (!two_safe_ || shipped_seq_ == 0) return CommitOutcome::kLocalDurable;
  if (quorum_acked_cache_ < shipped_seq_) wait_covered(shipped_seq_);
  const CommitOutcome outcome = outcome_of(shipped_seq_);
  last_commit_outcome_ = outcome;
  return outcome;
}

RedoPipeline::CommitOutcome RedoPipeline::commit(std::uint64_t seq) {
  return wait(commit_async(seq));
}

bool RedoPipeline::drain_peers() {
  // Everything committed must reach the carriers before the wait: the drain
  // target is the full shipped watermark, and every live peer — not just a
  // quorum — must acknowledge it. This is the quiesce step of a planned
  // primary handoff: once it returns true, any backup promotes with nothing
  // to replay and nothing in flight to resolve through the takeover path.
  ship_group();
  if (fenced_) return false;
  const std::uint64_t target = shipped_watermark();
  for (PeerSlot& p : peers_) {
    if (p.link != nullptr) p.link->flush();
  }
  const auto lagging = [&]() {
    for (const PeerSlot& p : peers_) {
      if (p.alive && p.acked_seq < target) return true;
    }
    return false;
  };
  const auto probe = [&](PeerSlot& p) {
    if (p.alive && !fenced_ && !link_send(p, FrameKind::kHeartbeat, &target, 8)) {
      p.alive = false;
    }
  };
  for (PeerSlot& p : peers_) {
    if (p.alive && p.acked_seq < target) probe(p);
    p.silent = 0;
  }
  while (!fenced_ && lagging()) {
    bool any_waiting = false;
    for (PeerSlot& p : peers_) {
      if (fenced_) break;
      if (!p.alive || p.acked_seq >= target) continue;
      any_waiting = true;
      auto frame = p.link->recv(kTwoSafeRecvTimeoutMs);
      if (!frame.has_value()) {
        switch (p.link->last_error()) {
          case LinkError::kTimeout:
            if (++p.silent > kTwoSafeMaxProbes) {
              p.alive = false;
              break;
            }
            probe(p);
            continue;
          case LinkError::kCorrupt:
            if (p.link->connected()) continue;
            p.alive = false;
            break;
          default:
            p.alive = false;
            break;
        }
        continue;
      }
      p.silent = 0;
      on_control_frame(p, *frame);
    }
    if (!any_waiting) break;
  }
  if (fenced_) return false;
  bool any_live = false;
  for (const PeerSlot& p : peers_) {
    if (!p.alive) continue;
    any_live = true;
    if (p.acked_seq < target) return false;  // gave up on a silent laggard
  }
  return any_live;
}

void RedoPipeline::insert_history(std::uint64_t seq, std::vector<std::uint8_t> batch) {
  history_bytes_ += batch.size();
  // Later sequences may already be in the history when a decision lands;
  // keep it seq-ordered so rejoin replays stay ascending.
  auto it = std::lower_bound(
      history_.begin(), history_.end(), seq,
      [](const HistoryEntry& e, std::uint64_t s) { return e.seq < s; });
  history_.insert(it, HistoryEntry{seq, std::move(batch)});
  while (history_bytes_ > history_capacity_ && !history_.empty()) {
    history_bytes_ -= history_.front().batch.size();
    history_.pop_front();
  }
}

RedoPipeline::CommitTicket RedoPipeline::prepare_cross(std::uint64_t seq, std::uint64_t xid) {
  VREP_CHECK(!ckpt_enabled_ &&
             "fuzzy checkpoints do not compose with cross-shard prepares yet");
  VREP_CHECK(in_doubt_.find(xid) == in_doubt_.end() && "xid already prepared");
  std::memcpy(batch_.data(), &seq, 8);
  // Anything buffered in the pending group precedes this prepare on the
  // wire; ship it so the backup sees sequences in order.
  ship_group();
  std::vector<std::uint8_t> payload(8 + batch_.size());
  std::memcpy(payload.data(), &xid, 8);
  std::memcpy(payload.data() + 8, batch_.data(), batch_.size());
  for (PeerSlot& p : peers_) {
    if (!p.alive || fenced_) continue;
    if (link_send(p, FrameKind::kXPrepare, payload.data(), payload.size())) {
      p.shipped->add(1);
    } else {
      p.alive = false;
    }
  }
  shipped_seq_ = seq;
  last_ticket_seq_ = seq;
  stats_.prepares_shipped++;
  static metrics::Counter& prepares_shipped = metrics::counter("repl.primary.prepares_shipped");
  prepares_shipped.add(1);
  in_doubt_.emplace(xid, InDoubtTxn{seq, std::move(batch_)});
  batch_.clear();
  for (PeerSlot& p : peers_) {
    if (p.alive) drain(p);
  }
  CommitOutcome outcome = CommitOutcome::kLocalDurable;
  if (!two_safe_) {
    local_resolved_upto_ = seq;
  } else {
    // Same bounded-window backpressure as commit_async: the coordinator's
    // conformance rule (decision only after every prepare is covered) rides
    // on these acks.
    if (window_ == 1) {
      wait_covered(seq);
    } else if (window_target() > quorum_acked_cache_) {
      wait_covered(window_target());
    }
    outcome = outcome_of(seq);
  }
  last_commit_outcome_ = outcome;
  return CommitTicket{seq};
}

bool RedoPipeline::decide_cross(std::uint64_t xid, bool commit) {
  auto it = in_doubt_.find(xid);
  if (it == in_doubt_.end()) return false;
  std::uint8_t payload[9];
  std::memcpy(payload, &xid, 8);
  payload[8] = commit ? 1 : 0;
  for (PeerSlot& p : peers_) {
    if (!p.alive || fenced_) continue;
    if (!link_send(p, FrameKind::kXDecide, payload, sizeof payload)) p.alive = false;
  }
  stats_.decides_shipped++;
  static metrics::Counter& decides_shipped = metrics::counter("repl.primary.decides_shipped");
  decides_shipped.add(1);
  if (commit) {
    insert_history(it->second.seq, std::move(it->second.batch));
  } else {
    // The sequence was consumed by the prepare; an empty batch keeps the
    // replay history contiguous while writing nothing.
    std::vector<std::uint8_t> empty(8);
    std::memcpy(empty.data(), &it->second.seq, 8);
    insert_history(it->second.seq, std::move(empty));
  }
  in_doubt_.erase(it);
  for (PeerSlot& p : peers_) {
    if (p.alive) drain(p);
  }
  return true;
}

bool RedoPipeline::sync_peer(PeerSlot& peer) {
  if (fenced_ || peer.link == nullptr) return false;
  std::uint8_t hello[16];
  const std::uint64_t size = source_.db_size();
  const std::uint64_t seq = source_.committed_seq();
  std::memcpy(hello, &size, 8);
  std::memcpy(hello + 8, &seq, 8);
  if (!link_send(peer, FrameKind::kHello, hello, sizeof hello)) {
    peer.alive = false;
    return false;
  }
  std::vector<std::uint8_t> chunk;
  for (std::size_t off = 0; off < source_.db_size(); off += kDbChunkBytes) {
    const std::size_t len = std::min(kDbChunkBytes, source_.db_size() - off);
    chunk.clear();
    chunk.resize(8);
    const std::uint64_t off64 = off;
    std::memcpy(chunk.data(), &off64, 8);
    chunk.insert(chunk.end(), source_.db() + off, source_.db() + off + len);
    if (!link_send(peer, FrameKind::kDbChunk, chunk.data(), chunk.size())) {
      peer.alive = false;
      return false;
    }
  }
  peer.alive = true;
  return true;
}

bool RedoPipeline::sync_backup() {
  bool any = false;
  for (PeerSlot& p : peers_) {
    if (p.link != nullptr && sync_peer(p)) any = true;
  }
  return any;
}

bool RedoPipeline::history_covers(std::uint64_t from_seq) const {
  const std::uint64_t committed = source_.committed_seq();
  if (from_seq == committed) return true;  // nothing to replay
  return !history_.empty() && history_.front().seq <= from_seq + 1 &&
         history_.back().seq == committed;
}

bool RedoPipeline::shared_lineage(std::uint64_t backup_seq, std::uint64_t state_epoch) const {
  // Same epoch: the requester has been following this primary, its state is
  // a prefix of ours. Pre-takeover epoch: only the prefix up to the
  // takeover floor is shared — a fenced straggler may have committed past
  // it into a lineage we never saw. Anything older is unverifiable.
  if (state_epoch == epoch()) return true;
  return lineage_.prev_epoch != 0 && state_epoch == lineage_.prev_epoch &&
         backup_seq <= lineage_.takeover_floor;
}

RedoPipeline::RejoinDecision RedoPipeline::decide_rejoin(std::uint64_t backup_seq,
                                                         std::uint64_t state_epoch) const {
  const std::uint64_t committed = source_.committed_seq();
  // A rejoiner claiming a sequence beyond anything this lineage committed
  // can never be repaired by a delta: the count `committed - backup_seq`
  // would underflow and the "replay" would be empty, leaving the backup
  // convinced it is caught up on state we never produced. Full image.
  if (backup_seq == 0 || backup_seq > committed) return RejoinDecision::kFullImage;
  if (!shared_lineage(backup_seq, state_epoch)) return RejoinDecision::kFullImage;
  if (history_covers(backup_seq)) return RejoinDecision::kDelta;
  // Behind the history window but covered by the completed checkpoint: patch
  // the pages dirtied after the requester's sequence from the checkpoint
  // image, then replay from the watermark. Requires the requester inside the
  // tracked-dirtiness range and an intact replay tail above the watermark.
  if (ckpt_.valid && backup_seq >= dirty_floor_ && backup_seq <= ckpt_.seq &&
      history_covers(ckpt_.seq)) {
    return RejoinDecision::kCheckpointDelta;
  }
  // Gap unservable from history or checkpoint (divergent lineage or evicted
  // batches): full image as last resort.
  return RejoinDecision::kFullImage;
}

bool RedoPipeline::serve_rejoin(PeerSlot& peer, std::uint64_t backup_seq, std::uint64_t node_id,
                                std::uint64_t state_epoch) {
  if (fenced_) return false;
  // A *new* backup joining the view is a membership change (epoch bump); a
  // reconnect of a backup already in the view is not.
  if (membership_ != nullptr && membership_->is_primary() &&
      !membership_->has_backup(static_cast<int>(node_id))) {
    membership_->adopt_backup(static_cast<int>(node_id));
  }
  stats_.rejoins_served++;
  peer.rejoins_served++;
  static metrics::Counter& rejoins_served = metrics::counter("repl.primary.rejoins_served");
  rejoins_served.add(1);
  const RejoinDecision decision = decide_rejoin(backup_seq, state_epoch);
  if (decision == RejoinDecision::kFullImage) {
    // Genuine last resort: neither the history nor a checkpoint could repair
    // the gap.
    stats_.full_syncs_served++;
    static metrics::Counter& full_syncs_served = metrics::counter("repl.primary.full_syncs_served");
    full_syncs_served.add(1);
    return sync_peer(peer);
  }
  std::uint64_t replay_from = backup_seq;
  if (decision == RejoinDecision::kCheckpointDelta) {
    if (!serve_checkpoint_delta(peer, backup_seq)) return false;
    replay_from = ckpt_.seq;
    stats_.checkpoint_deltas_served++;
    static metrics::Counter& checkpoint_deltas_served =
        metrics::counter("repl.primary.checkpoint_deltas_served");
    checkpoint_deltas_served.add(1);
  } else {
    stats_.deltas_served++;
    static metrics::Counter& deltas_served = metrics::counter("repl.primary.deltas_served");
    deltas_served.add(1);
  }
  const std::uint64_t committed = source_.committed_seq();
  VREP_CHECK(committed >= replay_from);  // decide_rejoin clamped claimed-future
  std::uint8_t delta[16];
  const std::uint64_t count = committed - replay_from;
  std::memcpy(delta, &replay_from, 8);
  std::memcpy(delta + 8, &count, 8);
  if (!link_send(peer, FrameKind::kRejoinDelta, delta, sizeof delta)) {
    peer.alive = false;
    return false;
  }
  for (const auto& entry : history_) {
    if (entry.seq <= replay_from) continue;
    if (!link_send(peer, FrameKind::kRedoBatch, entry.batch.data(), entry.batch.size())) {
      peer.alive = false;
      return false;
    }
  }
  peer.alive = true;
  return true;
}

bool RedoPipeline::handle_rejoin(std::size_t peer, int timeout_ms) {
  PeerSlot& p = peers_[peer];
  if (p.link == nullptr || !p.link->connected()) return false;
  while (true) {
    auto frame = p.link->recv(timeout_ms);
    if (!frame.has_value()) {
      if (p.link->last_error() == LinkError::kCorrupt && p.link->connected()) {
        continue;  // aligned corrupt frame: the peer will re-request
      }
      p.alive = false;
      return false;
    }
    if (frame->kind != FrameKind::kRejoinRequest || frame->payload.size() != 24) continue;
    if (membership_ != nullptr && frame->epoch > epoch()) {
      // The requester has seen a newer epoch than ours: we are the stale
      // node here. Step aside instead of serving.
      fence(frame->epoch);
      return false;
    }
    std::uint64_t seq, node, state_epoch;
    std::memcpy(&seq, frame->payload.data(), 8);
    std::memcpy(&node, frame->payload.data() + 8, 8);
    std::memcpy(&state_epoch, frame->payload.data() + 16, 8);
    return serve_rejoin(p, seq, node, state_epoch);
  }
}

bool RedoPipeline::send_heartbeat() {
  const std::uint64_t seq = shipped_watermark();
  for (PeerSlot& p : peers_) {
    if (p.alive && !fenced_ && !link_send(p, FrameKind::kHeartbeat, &seq, 8)) {
      p.alive = false;
    }
    if (p.alive) drain(p);
  }
  return connection_alive();
}

// ---------------------------------------------------------------------------
// RedoApplier
// ---------------------------------------------------------------------------

bool RedoApplier::request_rejoin(ReplicationLink& link) {
  // A (re)request supersedes any half-received install: the buffered chunks
  // belong to a serve that is no longer coming back.
  clear_checkpoint_install();
  std::uint8_t req[24];
  // An incomplete image cannot be repaired by a sequence delta: ask from 0,
  // which the primary always answers with a full image sync.
  const std::uint64_t from = image_complete() ? applied_seq_ : 0;
  std::memcpy(req, &from, 8);
  std::memcpy(req + 8, &node_id_, 8);
  std::memcpy(req + 16, &state_epoch_, 8);
  return link.send(FrameKind::kRejoinRequest, epoch(), req, sizeof req);
}

void RedoApplier::adopt_image(std::size_t size, std::uint64_t applied_seq,
                              std::uint64_t state_epoch) {
  VREP_CHECK(size <= target_.capacity());
  clear_checkpoint_install();
  db_size_ = size;
  image_next_off_ = size;
  applied_seq_ = applied_seq;
  state_epoch_ = state_epoch;
  awaiting_resync_ = false;
}

void RedoApplier::seed(const std::uint8_t* db, std::size_t size, std::uint64_t applied_seq,
                       std::uint64_t state_epoch) {
  VREP_CHECK(size <= target_.capacity());
  target_.write(0, db, size);
  adopt_image(size, applied_seq, state_epoch);
}

void RedoApplier::maybe_request_resync(ReplicationLink& link) {
  if (awaiting_resync_) return;
  if (request_rejoin(link)) awaiting_resync_ = true;
}

void RedoApplier::note_corrupt_skipped(ReplicationLink& link) {
  stats_.corrupt_skipped++;
  corrupt_skipped().add(1);
  maybe_request_resync(link);
}

RedoApplier::ReadResult RedoApplier::read_at_watermark(std::uint64_t off, std::uint32_t len,
                                                       std::uint64_t min_seq,
                                                       std::uint8_t* out) const {
  ReadResult result;
  result.at_seq = applied_seq_;
  if (applied_seq_ < min_seq) {
    // Read-your-writes bounce: this replica has not yet applied the
    // client's own commit. at_seq tells the caller how far behind it is.
    result.status = ReadStatus::kLagging;
    static metrics::Counter& reads_bounced = metrics::counter("repl.backup.reads_bounced");
    reads_bounced.add(1);
    return result;
  }
  if (!image_complete() || off > db_size_ || len > db_size_ - off) {
    result.status = ReadStatus::kOutOfBounds;
    static metrics::Counter& reads_oob = metrics::counter("repl.backup.reads_oob");
    reads_oob.add(1);
    return result;
  }
  if (len != 0) std::memcpy(out, target_.data() + off, len);
  result.status = ReadStatus::kOk;
  static metrics::Counter& reads_served = metrics::counter("repl.backup.reads_served");
  reads_served.add(1);
  return result;
}

void RedoApplier::clear_checkpoint_install() {
  ckpt_installing_ = false;
  ckpt_chunks_.clear();
}

void RedoApplier::abort_checkpoint_install(ReplicationLink& link) {
  clear_checkpoint_install();
  stats_.checkpoint_aborts++;
  static metrics::Counter& checkpoint_aborts = metrics::counter("repl.backup.checkpoint_aborts");
  checkpoint_aborts.add(1);
  // The replica image was never touched (chunks only buffer until the End
  // CRC verifies), so re-requesting from our real sequence is always safe.
  awaiting_resync_ = false;
  maybe_request_resync(link);
}

void RedoApplier::on_ckpt_begin(const Frame& frame, ReplicationLink& link) {
  if (frame.payload.size() != 24) {
    note_corrupt_skipped(link);
    return;
  }
  std::uint64_t seq, size;
  std::uint32_t crc, count;
  std::memcpy(&seq, frame.payload.data(), 8);
  std::memcpy(&size, frame.payload.data() + 8, 8);
  std::memcpy(&crc, frame.payload.data() + 16, 4);
  std::memcpy(&count, frame.payload.data() + 20, 4);
  if (seq <= applied_seq_) {
    // A replayed install start for state we already hold (duplicate fault).
    stats_.duplicates_ignored++;
    duplicates_ignored().add(1);
    return;
  }
  if (!image_complete() || size != db_size_) {
    // A checkpoint delta patches an intact base image; without one (or with
    // mismatched geometry) only a full sync can help.
    clear_checkpoint_install();
    awaiting_resync_ = false;
    maybe_request_resync(link);
    return;
  }
  // A fresh Begin supersedes any half-buffered install (the primary decided
  // to re-serve, e.g. after our re-request).
  ckpt_installing_ = true;
  ckpt_install_seq_ = seq;
  ckpt_install_crc_ = crc;
  ckpt_chunks_expected_ = count;
  ckpt_chunks_.clear();
}

void RedoApplier::on_ckpt_chunk(const Frame& frame, ReplicationLink& link) {
  if (!ckpt_installing_) {
    // Begin lost (or install already aborted): the chunk is unanchored.
    // The End — or the next heartbeat — drives the re-request.
    stats_.duplicates_ignored++;
    duplicates_ignored().add(1);
    return;
  }
  if (frame.payload.size() < 8) {
    abort_checkpoint_install(link);
    return;
  }
  std::uint64_t off;
  std::memcpy(&off, frame.payload.data(), 8);
  const std::size_t len = frame.payload.size() - 8;
  if (off + len > db_size_) {
    abort_checkpoint_install(link);
    return;
  }
  // Buffer only — the replica image stays untouched until the End CRC proves
  // the combined result, so a torn install is never adoptable.
  PendingChunk chunk;
  chunk.off = off;
  chunk.bytes.assign(frame.payload.begin() + 8, frame.payload.end());
  ckpt_chunks_.push_back(std::move(chunk));
}

void RedoApplier::on_ckpt_end(const Frame& frame, ReplicationLink& link) {
  if (frame.payload.size() != 12) {
    note_corrupt_skipped(link);
    return;
  }
  std::uint64_t seq;
  std::uint32_t crc;
  std::memcpy(&seq, frame.payload.data(), 8);
  std::memcpy(&crc, frame.payload.data() + 8, 4);
  if (!ckpt_installing_) {
    if (seq <= applied_seq_) {
      // Duplicate End after a completed install.
      stats_.duplicates_ignored++;
      duplicates_ignored().add(1);
      return;
    }
    // The Begin never arrived: nothing buffered, re-request cleanly.
    awaiting_resync_ = false;
    maybe_request_resync(link);
    return;
  }
  if (seq != ckpt_install_seq_ || crc != ckpt_install_crc_) {
    abort_checkpoint_install(link);
    return;
  }
  // Sort + dedupe the buffered chunks (duplicate faults re-deliver a run
  // verbatim), then demand exactly the announced disjoint ascending set —
  // anything else is a torn transfer.
  std::sort(ckpt_chunks_.begin(), ckpt_chunks_.end(),
            [](const PendingChunk& a, const PendingChunk& b) { return a.off < b.off; });
  ckpt_chunks_.erase(std::unique(ckpt_chunks_.begin(), ckpt_chunks_.end(),
                                 [](const PendingChunk& a, const PendingChunk& b) {
                                   return a.off == b.off && a.bytes == b.bytes;
                                 }),
                     ckpt_chunks_.end());
  bool shape_ok = ckpt_chunks_.size() == ckpt_chunks_expected_;
  std::uint64_t prev_end = 0;
  for (const PendingChunk& c : ckpt_chunks_) {
    if (c.off < prev_end) shape_ok = false;
    prev_end = c.off + c.bytes.size();
  }
  if (!shape_ok) {
    abort_checkpoint_install(link);
    return;
  }
  // Verify BEFORE applying: CRC of the merged view (current image where no
  // chunk covers, buffered chunk bytes where one does) must equal the
  // watermark's full-image CRC. Only then do the chunks touch the replica.
  Crc32 merged;
  const std::uint8_t* base = target_.data();
  std::size_t at = 0;
  for (const PendingChunk& c : ckpt_chunks_) {
    if (at < c.off) merged.update(base + at, c.off - at);
    merged.update(c.bytes.data(), c.bytes.size());
    at = c.off + c.bytes.size();
  }
  if (at < db_size_) merged.update(base + at, db_size_ - at);
  if (merged.value() != ckpt_install_crc_) {
    // Transfer faults fail the shape check above, so a merged-CRC mismatch
    // means our base image diverges from what the watermark promises.
    // Distrust it entirely — re-request as imageless (full sync) rather than
    // loop on checkpoint deltas that can never verify.
    image_next_off_ = 0;
    abort_checkpoint_install(link);
    return;
  }
  for (const PendingChunk& c : ckpt_chunks_) {
    target_.write(c.off, c.bytes.data(), c.bytes.size());
  }
  applied_seq_ = ckpt_install_seq_;
  state_epoch_ = frame.epoch;
  clear_checkpoint_install();
  awaiting_resync_ = false;
  stats_.checkpoint_installs++;
  static metrics::Counter& checkpoint_installs =
      metrics::counter("repl.backup.checkpoint_installs");
  checkpoint_installs.add(1);
  link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
}

void RedoApplier::apply_validated(const std::uint8_t* payload, std::size_t size) {
  BatchReader reader(payload, size);
  RedoChunk chunk;
  while (reader.next(&chunk)) target_.write(chunk.db_off, chunk.data, chunk.len);
  applied_seq_ = batch_seq(payload);
}

bool RedoApplier::apply_batch(const Frame& frame) {
  // Validate the whole batch before touching the image so a malformed frame
  // is never applied partially (the backup's image must only ever hold
  // whole transactions).
  if (!batch_valid(frame.payload.data(), frame.payload.size(), db_size_)) return false;
  apply_validated(frame.payload.data(), frame.payload.size());
  return true;
}

bool RedoApplier::apply_decoded(std::uint64_t first_seq, std::uint64_t last_seq,
                                const RedoChunk* chunks, std::size_t count,
                                std::uint64_t epoch) {
  VREP_CHECK(first_seq <= last_seq);
  if (last_seq <= applied_seq_) {
    stats_.duplicates_ignored++;  // duplicate, replay, or stale ring lap
    duplicates_ignored().add(1);
    return false;
  }
  if (first_seq != applied_seq_ + 1) {
    stats_.gaps_detected++;
    gaps_detected().add(1);
    return false;
  }
  // The carrier guaranteed the group arrived whole (ring group checksum /
  // frame CRC), so the [first_seq, last_seq] range applies atomically.
  for (std::size_t i = 0; i < count; ++i) {
    VREP_CHECK(chunks[i].db_off + std::uint64_t{chunks[i].len} <= db_size_);
    target_.write(chunks[i].db_off, chunks[i].data, chunks[i].len);
  }
  applied_seq_ = last_seq;
  state_epoch_ = epoch;
  const std::uint64_t applied = last_seq - first_seq + 1;
  stats_.batches_applied += applied;
  batches_applied().add(applied);
  return true;
}

void RedoApplier::on_group_frame(const Frame& frame, ReplicationLink& link) {
  if (!image_complete()) {
    maybe_request_resync(link);
    return;
  }
  // Validate the whole group — structure, every sub-batch, and the
  // contiguity of their sequences — before touching the image: a group is
  // applied in full or not at all, never partially.
  if (!group_valid(frame.payload.data(), frame.payload.size(), db_size_)) {
    note_corrupt_skipped(link);
    return;
  }
  GroupReader group(frame.payload.data(), frame.payload.size());
  const std::uint8_t* sub;
  std::size_t sub_len;
  VREP_CHECK(group.next(&sub, &sub_len));
  const std::uint64_t first = batch_seq(sub);
  const std::uint64_t last = first + group.count() - 1;
  if (last <= applied_seq_) {
    stats_.duplicates_ignored++;  // whole group replayed (duplicate fault)
    duplicates_ignored().add(1);
    return;
  }
  if (first > applied_seq_ + 1) {
    // A frame before this group went missing: resync from the last good
    // sequence instead of applying on top of a hole.
    stats_.gaps_detected++;
    gaps_detected().add(1);
    maybe_request_resync(link);
    return;
  }
  // Sub-batches at or below applied_seq_ are delta-replay overlap; the rest
  // apply in sequence order. Everything is pre-validated, so from here the
  // group cannot fail partway.
  std::uint64_t applied = 0;
  do {
    if (batch_seq(sub) > applied_seq_) {
      apply_validated(sub, sub_len);
      applied++;
    }
  } while (group.next(&sub, &sub_len));
  state_epoch_ = frame.epoch;
  stats_.batches_applied += applied;
  batches_applied().add(applied);
  // One ack per group frame: the primary's in-flight window drains at group
  // granularity, so per-group acks are what keep it moving.
  link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
}

void RedoApplier::on_prepare_frame(const Frame& frame, ReplicationLink& link) {
  if (!image_complete()) {
    maybe_request_resync(link);
    return;
  }
  if (frame.payload.size() < 16) {
    note_corrupt_skipped(link);
    return;
  }
  std::uint64_t xid;
  std::memcpy(&xid, frame.payload.data(), 8);
  const std::uint8_t* batch = frame.payload.data() + 8;
  const std::size_t batch_len = frame.payload.size() - 8;
  // Validate NOW, while the primary still holds the bytes: a decision frame
  // carries only the xid, so a corrupt buffered batch could not be repaired
  // later.
  if (!batch_valid(batch, batch_len, db_size_)) {
    note_corrupt_skipped(link);
    return;
  }
  const std::uint64_t seq = batch_seq(batch);
  if (seq <= applied_seq_) {
    stats_.duplicates_ignored++;  // prepare replay (duplicate fault)
    duplicates_ignored().add(1);
    // Still ack: the coordinator blocks on coverage of this sequence.
    link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
    return;
  }
  if (seq != applied_seq_ + 1) {
    stats_.gaps_detected++;
    gaps_detected().add(1);
    maybe_request_resync(link);
    return;
  }
  in_doubt_[xid].assign(batch, batch + batch_len);
  // The prepare consumes its sequence — the bytes stay out of the image
  // until the decision — so the redo stream continues past it and 2-safe
  // coverage extends to the prepare.
  applied_seq_ = seq;
  state_epoch_ = frame.epoch;
  stats_.prepares_buffered++;
  static metrics::Counter& prepares_buffered = metrics::counter("repl.backup.prepares_buffered");
  prepares_buffered.add(1);
  // Ack every prepare immediately: the coordinator's phase-1 durability wait
  // rides on it, and prepares are rare enough that batching buys nothing.
  link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
}

void RedoApplier::on_decide_frame(const Frame& frame) {
  if (frame.payload.size() != 9) {
    stats_.corrupt_skipped++;
    corrupt_skipped().add(1);
    return;
  }
  std::uint64_t xid;
  std::memcpy(&xid, frame.payload.data(), 8);
  if (!resolve_in_doubt(xid, frame.payload[8] != 0)) {
    stats_.duplicates_ignored++;  // decision replay after resolution
    duplicates_ignored().add(1);
  }
}

std::vector<std::uint64_t> RedoApplier::in_doubt_xids() const {
  std::vector<std::uint64_t> xids;
  xids.reserve(in_doubt_.size());
  for (const auto& [xid, batch] : in_doubt_) xids.push_back(xid);
  return xids;
}

bool RedoApplier::resolve_in_doubt(std::uint64_t xid, bool commit) {
  auto it = in_doubt_.find(xid);
  if (it == in_doubt_.end()) return false;
  if (commit) {
    // The batch was validated at prepare; applied_seq_ already advanced past
    // it when the prepare consumed its sequence, so only the writes land.
    BatchReader reader(it->second.data(), it->second.size());
    RedoChunk chunk;
    while (reader.next(&chunk)) target_.write(chunk.db_off, chunk.data, chunk.len);
    stats_.decides_committed++;
    static metrics::Counter& decides_committed = metrics::counter("repl.backup.decides_committed");
    decides_committed.add(1);
  } else {
    stats_.decides_aborted++;
    static metrics::Counter& decides_aborted = metrics::counter("repl.backup.decides_aborted");
    decides_aborted.add(1);
  }
  in_doubt_.erase(it);
  return true;
}

RedoApplier::FrameResult RedoApplier::on_frame(const Frame& frame, ReplicationLink& link) {
  if (membership_ != nullptr) {
    const std::uint64_t cur = membership_->view().epoch;
    if (frame.epoch < cur) {
      // Stale-epoch traffic — a fenced old primary still shipping. Drop it
      // and tell the sender which epoch rules now.
      stats_.stale_fenced++;
      static metrics::Counter& stale_fenced = metrics::counter("repl.backup.stale_fenced");
      stale_fenced.add(1);
      link.send(FrameKind::kEpochFence, cur, &cur, 8);
      return FrameResult::kOk;
    }
    if (frame.epoch > cur) {
      // A newer primary only introduces itself through a sync start (a
      // checkpoint install begin is one: it anchors the resync it leads).
      if (frame.kind == FrameKind::kHello || frame.kind == FrameKind::kRejoinDelta ||
          frame.kind == FrameKind::kEpochFence || frame.kind == FrameKind::kCkptBegin) {
        membership_->join_epoch(frame.epoch);
      } else {
        return FrameResult::kOk;
      }
    }
  }

  switch (frame.kind) {
    case FrameKind::kHello: {
      if (frame.payload.size() != 16) return FrameResult::kCorrupt;
      std::uint64_t size;
      std::memcpy(&size, frame.payload.data(), 8);
      std::memcpy(&applied_seq_, frame.payload.data() + 8, 8);
      if (size > target_.capacity()) return FrameResult::kCorrupt;
      clear_checkpoint_install();  // a full sync supersedes any install
      db_size_ = size;
      image_next_off_ = 0;  // image transfer restarts
      state_epoch_ = frame.epoch;
      break;
    }
    case FrameKind::kDbChunk: {
      if (frame.payload.size() < 8) {
        note_corrupt_skipped(link);
        break;
      }
      std::uint64_t off;
      std::memcpy(&off, frame.payload.data(), 8);
      const std::size_t len = frame.payload.size() - 8;
      if (off < image_next_off_) {
        stats_.duplicates_ignored++;  // replayed chunk (duplicate fault)
        duplicates_ignored().add(1);
        break;
      }
      if (off > image_next_off_) {
        // A chunk went missing: the image has a hole only a fresh full
        // sync can fill.
        stats_.gaps_detected++;
        gaps_detected().add(1);
        maybe_request_resync(link);
        break;
      }
      if (off + len > db_size_) return FrameResult::kCorrupt;
      target_.write(off, frame.payload.data() + 8, len);
      image_next_off_ = off + len;
      if (image_complete() && awaiting_resync_) {
        awaiting_resync_ = false;
        stats_.resyncs++;
        resyncs().add(1);
      }
      break;
    }
    case FrameKind::kRedoBatch: {
      if (!image_complete()) {
        // No image yet (or a holed one): batches are unusable until a full
        // sync lands.
        maybe_request_resync(link);
        break;
      }
      if (frame.payload.size() < 8) {
        note_corrupt_skipped(link);
        break;
      }
      const std::uint64_t seq = batch_seq(frame.payload.data());
      if (seq <= applied_seq_) {
        stats_.duplicates_ignored++;  // duplicate fault or delta overlap
        duplicates_ignored().add(1);
        break;
      }
      if (seq == applied_seq_ + 1) {
        if (!apply_batch(frame)) {
          note_corrupt_skipped(link);
          break;
        }
        stats_.batches_applied++;
        batches_applied().add(1);
        state_epoch_ = frame.epoch;
        // Acknowledge periodically (flow control / monitoring); per-batch
        // acks would just pressure the primary's receive buffer.
        if (applied_seq_ % 32 == 0) {
          link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
        }
        break;
      }
      // Sequence gap: a batch was dropped or skipped as corrupt. Resync
      // from the last good sequence instead of giving up.
      stats_.gaps_detected++;
      gaps_detected().add(1);
      maybe_request_resync(link);
      break;
    }
    case FrameKind::kRedoGroup:
      on_group_frame(frame, link);
      break;
    case FrameKind::kRejoinDelta: {
      if (frame.payload.size() != 16) break;
      std::uint64_t from, count;
      std::memcpy(&from, frame.payload.data(), 8);
      std::memcpy(&count, frame.payload.data() + 8, 8);
      if (from <= applied_seq_ && image_complete()) {
        // The replay that follows is contiguous from `from`; batches we
        // already hold are ignored as duplicates.
        awaiting_resync_ = false;
        stats_.resyncs++;
        resyncs().add(1);
      } else {
        // Unusable delta (should not happen): re-request from where we
        // actually are. A half-buffered install died with the serve that
        // fed it.
        if (ckpt_installing_) {
          abort_checkpoint_install(link);
          break;
        }
        awaiting_resync_ = false;
        maybe_request_resync(link);
      }
      break;
    }
    case FrameKind::kCkptBegin:
      on_ckpt_begin(frame, link);
      break;
    case FrameKind::kCkptChunk:
      on_ckpt_chunk(frame, link);
      break;
    case FrameKind::kCkptEnd:
      on_ckpt_end(frame, link);
      break;
    case FrameKind::kHeartbeat: {
      // Liveness — but the heartbeat also carries the primary's committed
      // sequence, which closes the trailing-drop window: a gap with no
      // batch behind it would otherwise go unnoticed until the next commit.
      if (frame.payload.size() == 8 && image_complete()) {
        std::uint64_t committed;
        std::memcpy(&committed, frame.payload.data(), 8);
        if (committed > applied_seq_) {
          if (ckpt_installing_) {
            // The End (or the serve's whole tail) was lost: drop the
            // buffered install and re-request — heartbeats double as the
            // install retry timer exactly as they do for lost deltas.
            abort_checkpoint_install(link);
            break;
          }
          stats_.gaps_detected++;
          gaps_detected().add(1);
          // Heartbeats double as the resync retry timer: if a previous
          // request (or the delta answering it) was itself lost, re-arm
          // instead of waiting forever on a reply that will never come.
          awaiting_resync_ = false;
          maybe_request_resync(link);
        } else {
          // All caught up: acknowledge so the primary's acked watermark
          // converges even between the periodic batch acks (and so 2-safe
          // commit probes resolve immediately).
          link.send(FrameKind::kConsumerAck, epoch(), &applied_seq_, 8);
        }
      }
      break;
    }
    case FrameKind::kXPrepare:
      on_prepare_frame(frame, link);
      break;
    case FrameKind::kXDecide:
      on_decide_frame(frame);
      break;
    case FrameKind::kEpochFence:
      break;  // epoch already adopted above (if newer)
    default:
      // Unknown frame type with valid CRCs: version skew. Skip it.
      stats_.corrupt_skipped++;
      corrupt_skipped().add(1);
      break;
  }
  return FrameResult::kOk;
}

}  // namespace vrep::repl
