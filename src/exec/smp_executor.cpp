#include "exec/smp_executor.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace vrep::exec {

// ---------------------------------------------------------------------------
// Partition capture sink
// ---------------------------------------------------------------------------

void SmpExecutor::Partition::on_captured_store(std::uint64_t off, const void* src,
                                               std::size_t len) {
  // Called with this partition's latch held (the capture window only covers
  // this partition's db region, written by the latched workload txn).
  TxnRecord* rec = current;
  VREP_DCHECK(rec != nullptr);
  if (rec == nullptr) return;  // capture outside a worker txn: nothing to ship
  const std::uint64_t global = base + off;
  if (!rec->spans.empty()) {
    auto& last = rec->spans.back();
    if (last.first + last.second == global) {
      // Contiguous with the previous store (a set_range's writes arrive back
      // to back): extend the span instead of growing the table.
      last.second += static_cast<std::uint32_t>(len);
      const auto* p = static_cast<const std::uint8_t*>(src);
      rec->bytes.insert(rec->bytes.end(), p, p + len);
      return;
    }
  }
  rec->spans.emplace_back(global, static_cast<std::uint32_t>(len));
  const auto* p = static_cast<const std::uint8_t*>(src);
  rec->bytes.insert(rec->bytes.end(), p, p + len);
}

// ---------------------------------------------------------------------------
// StagingQueue
// ---------------------------------------------------------------------------

void SmpExecutor::StagingQueue::push(TxnRecord* record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (q_.size() >= capacity_) {
    ++full_waits_;
    can_push_.wait(lock, [&] { return q_.size() < capacity_ || closed_; });
  }
  VREP_CHECK(!closed_);  // producers are joined before close()
  q_.push_back(record);
  can_pop_.notify_one();
}

SmpExecutor::TxnRecord* SmpExecutor::StagingQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  can_pop_.wait(lock, [&] { return !q_.empty() || closed_; });
  if (q_.empty()) return nullptr;
  TxnRecord* record = q_.front();
  q_.pop_front();
  can_push_.notify_one();
  return record;
}

void SmpExecutor::StagingQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  can_pop_.notify_all();
  can_push_.notify_all();
}

std::uint64_t SmpExecutor::StagingQueue::full_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_waits_;
}

// ---------------------------------------------------------------------------
// SmpExecutor
// ---------------------------------------------------------------------------

SmpExecutor::SmpExecutor(const SmpConfig& config, repl::ReplicationLink* link)
    : config_(config), stride_(config.partition_db_size) {
  VREP_CHECK(config_.workers >= 1);
  VREP_CHECK(config_.sequencer_shards >= 1);
  // Per-group replication is wired through group_pipeline(); the
  // constructor's single link only makes sense with a single group.
  VREP_CHECK(link == nullptr || config_.sequencer_shards == 1);
  if (config_.partitions == 0) config_.partitions = config_.workers * 2;
  VREP_CHECK(config_.partitions % config_.sequencer_shards == 0 &&
             "shard groups must divide the partition count");
  partitions_per_group_ = config_.partitions / config_.sequencer_shards;
  partitions_.reserve(config_.partitions);
  for (unsigned p = 0; p < config_.partitions; ++p) {
    auto part = std::make_unique<Partition>();
    core::StoreConfig store_cfg = wl::suggest_config(config_.workload, stride_);
    store_cfg.db_size = stride_;
    part->arena = rio::Arena::create(
        core::required_arena_size(core::VersionKind::kV3InlineLog, store_cfg));
    part->store = std::make_unique<core::InlineLogStore>(part->bus, part->arena,
                                                         store_cfg, /*format=*/true);
    part->workload = wl::make_workload(config_.workload, stride_);
    part->workload->initialize(*part->store);
    part->store->flush_initial_state();
    part->base = static_cast<std::uint64_t>(p % partitions_per_group_) * stride_;
    // Capture from here on: the initial image ships via sync_backup(), only
    // transaction writes become redo.
    part->bus.set_capture(part->store->db(), stride_, part.get());
    partitions_.push_back(std::move(part));
  }
  groups_.reserve(config_.sequencer_shards);
  for (unsigned g = 0; g < config_.sequencer_shards; ++g) {
    auto group = std::make_unique<ShardGroup>();
    group->owner = this;
    group->first_partition = static_cast<std::size_t>(g) * partitions_per_group_;
    group->partition_count = partitions_per_group_;
    group->queue = std::make_unique<StagingQueue>(
        config_.queue_capacity == 0 ? 1 : config_.queue_capacity);
    group->pipeline =
        std::make_unique<repl::RedoPipeline>(*group, g == 0 ? link : nullptr);
    group->pipeline->set_two_safe(config_.two_safe);
    group->pipeline->set_quorum(config_.quorum);
    group->pipeline->set_commit_window(config_.commit_window);
    group->pipeline->set_group_size(config_.group_size);
    groups_.push_back(std::move(group));
  }
  // Pre-size the record pool to the queue depth plus one in-flight record
  // per worker, so the steady state never allocates.
  std::lock_guard<std::mutex> lock(free_mu_);
  for (std::size_t i = 0;
       i < config_.queue_capacity * groups_.size() + config_.workers + 1; ++i) {
    records_.push_back(std::make_unique<TxnRecord>());
    free_.push_back(records_.back().get());
  }
}

SmpExecutor::~SmpExecutor() = default;

const std::uint8_t* SmpExecutor::ShardGroup::db() const {
  // Gathering partitions into one contiguous image is only coherent while no
  // worker can write: before run() (seeding backups) or after it returned
  // (final sync, rejoins, checkpoints).
  VREP_CHECK(owner->quiesced_.load(std::memory_order_acquire));
  image.resize(db_size());
  for (std::size_t i = 0; i < partition_count; ++i) {
    const auto& part = owner->partitions_[first_partition + i];
    std::memcpy(image.data() + part->base, part->store->db(), owner->stride_);
  }
  return image.data();
}

bool SmpExecutor::sync_backup() {
  VREP_CHECK(groups_.size() == 1);
  return groups_.front()->pipeline->sync_backup();
}

repl::RedoPipeline& SmpExecutor::pipeline() {
  VREP_CHECK(groups_.size() == 1);
  return *groups_.front()->pipeline;
}

repl::RedoPipeline& SmpExecutor::group_pipeline(unsigned group) {
  return *groups_.at(group)->pipeline;
}

std::uint64_t SmpExecutor::sequenced() const {
  std::uint64_t total = 0;
  for (const auto& g : groups_) total += g->committed.load(std::memory_order_acquire);
  return total;
}

std::uint64_t SmpExecutor::group_sequenced(unsigned group) const {
  return groups_.at(group)->committed.load(std::memory_order_acquire);
}

const std::uint8_t* SmpExecutor::image() const {
  VREP_CHECK(quiesced_.load(std::memory_order_acquire));
  image_.resize(image_size());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    std::memcpy(image_.data() + p * stride_, partitions_[p]->store->db(), stride_);
  }
  return image_.data();
}

SmpExecutor::TxnRecord* SmpExecutor::acquire_record() {
  std::lock_guard<std::mutex> lock(free_mu_);
  if (free_.empty()) {
    records_.push_back(std::make_unique<TxnRecord>());
    return records_.back().get();
  }
  TxnRecord* record = free_.back();
  free_.pop_back();
  return record;
}

void SmpExecutor::release_record(TxnRecord* record) {
  std::lock_guard<std::mutex> lock(free_mu_);
  free_.push_back(record);
}

void SmpExecutor::worker_main(unsigned index) {
  // Distinct deterministic stream per worker; the partition pick and the
  // workload's own randomness both draw from it.
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + index + 1);
  const std::size_t nparts = partitions_.size();
  for (std::uint64_t i = 0; i < config_.txns_per_worker; ++i) {
    const std::uint32_t draw = rng.next_u32();  // same stream with or without route
    const std::size_t pi = config_.route ? config_.route(draw, nparts) % nparts
                                         : draw % nparts;
    Partition& part = *partitions_[pi];
    ShardGroup& group = *groups_[pi / partitions_per_group_];
    TxnRecord* rec = acquire_record();
    rec->clear();
    core::LatchGuard guard(part.latch);
    part.current = rec;
    part.workload->run_txn(*part.store, rng);
    part.current = nullptr;
    // Enqueue before releasing the latch: the group's queue order is then a
    // linearization of this partition's commit order, so the backup applies
    // overlapping writes to each record in the order they committed. push()
    // may block on a full queue — holding the latch while blocked is safe
    // (the sequencers drain the queues and never take latches).
    group.queue->push(rec);
  }
}

void SmpExecutor::sequencer_main(ShardGroup& group) {
  // The lone writer into this group's pipeline: replays each record's
  // captured spans as staged redo and commits it under the group's next
  // sequence. 2-safe window stalls block here; the bounded queue relays the
  // backpressure to the workers.
  repl::RedoPipeline& pipeline = *group.pipeline;
  while (TxnRecord* rec = group.queue->pop()) {
    pipeline.begin();
    const std::uint8_t* p = rec->bytes.data();
    for (const auto& [off, len] : rec->spans) {
      pipeline.stage(off, p, len);
      p += len;
    }
    const std::uint64_t seq = group.committed.load(std::memory_order_relaxed) + 1;
    // Publish before commit_async: the pipeline reads Source::committed_seq
    // on its commit path (shipped watermark), expecting the local commit to
    // precede it — same order as WirePrimary.
    group.committed.store(seq, std::memory_order_release);
    pipeline.commit_async(seq);
    release_record(rec);
  }
}

SmpExecutor::Result SmpExecutor::run() {
  VREP_CHECK(!ran_);
  ran_ = true;
  quiesced_.store(false, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> sequencers;
  sequencers.reserve(groups_.size());
  for (auto& group : groups_) {
    sequencers.emplace_back([this, g = group.get()] { sequencer_main(*g); });
  }
  std::vector<std::thread> workers;
  workers.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers.emplace_back([this, w] { worker_main(w); });
  }
  for (auto& t : workers) t.join();
  for (auto& group : groups_) group->queue->close();
  for (auto& t : sequencers) t.join();
  // Resolve everything still in flight (ship a partial group, wait out the
  // 2-safe window) so `committed` below is fully replicated.
  for (auto& group : groups_) group->pipeline->sync();
  const auto t1 = std::chrono::steady_clock::now();
  quiesced_.store(true, std::memory_order_release);

  Result r;
  r.committed = sequenced();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.tps = r.seconds > 0 ? static_cast<double>(r.committed) / r.seconds : 0;
  for (const auto& part : partitions_) r.latch_contended += part->latch.contended();
  for (const auto& group : groups_) r.queue_full_waits += group->queue->full_waits();
  static metrics::Counter& txns_committed = metrics::counter("exec.smp.txns_committed");
  txns_committed.add(r.committed);
  static metrics::Counter& latch_contended = metrics::counter("exec.smp.latch_contended");
  latch_contended.add(r.latch_contended);
  static metrics::Counter& queue_full_waits = metrics::counter("exec.smp.queue_full_waits");
  queue_full_waits.add(r.queue_full_waits);
  return r;
}

std::string SmpExecutor::check_consistency() const {
  VREP_CHECK(quiesced_.load(std::memory_order_acquire));
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const std::string err = partitions_[p]->workload->check_consistency(*partitions_[p]->store);
    if (!err.empty()) {
      return "partition " + std::to_string(p) + ": " + err;
    }
  }
  return "";
}

}  // namespace vrep::exec
