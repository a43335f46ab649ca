// Workload smp_oe: exec::SmpExecutor running Order-Entry with 2 workers and
// the sequencer, 2-safe with W=8, G=4, replicating to a net::WireBackup
// serve thread over InprocTransport + TransportLink. 4 partitions x 4 MiB.
// Closed loop: each worker runs its next transaction as soon as the last is
// enqueued.
//
// SmpExecutor::run() executes a fixed count, so the run is a sequence of
// rounds, each a fresh executor and backup: set-up (seed the partitions,
// start the backup, ship the image) is timed per round, throughput is the
// median round. A transaction's time is the worker's cycle between two
// calls of the partition-routing hook the benchmark binds: acquire a
// record, latch, execute, enqueue (with queue backpressure).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/smp_executor.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport_link.hpp"
#include "net/wire_repl.hpp"
#include "probes.hpp"
#include "rio/arena.hpp"
#include "util/crc32.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kPartitions = 4;
constexpr std::uint64_t kTxnsPerWorker = 25'000;
constexpr unsigned kMinRounds = 3;
constexpr unsigned kMaxRounds = 40;

// Per-worker cycle clock behind the routing hook. Each worker thread finds
// its own slot through a thread-local keyed by the round's generation.
class CycleClock {
 public:
  explicit CycleClock(Tracer* tracer) : tracer_(tracer), generation_(next_generation()) {}

  std::size_t route(std::uint32_t draw, std::size_t partitions) {
    thread_local std::uint64_t tl_generation = 0;
    thread_local Slot* tl_slot = nullptr;
    if (tl_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      tl_slot = slots_.back().get();
      tl_slot->index = slots_.size() - 1;
      tl_generation = generation_;
    }
    Slot& s = *tl_slot;
    const std::uint64_t now = now_ns();
    if (s.last != 0) {
      s.cycles.add(now - s.last);
      if (tracer_ != nullptr) {
        tracer_->record("exec.worker_txn", 0, (s.index << 40) | s.n, s.last, now);
      }
    }
    s.last = now;
    if (++s.n == 1000 && s.index == 0) {
      threads_seen_.store(os_threads(hw_threads() + 1), std::memory_order_relaxed);
    }
    return draw % partitions;  // the executor's own default placement
  }

  // Quiesced (after run()).
  Samples collect() const {
    Samples all;
    for (const auto& s : slots_) all.merge(s->cycles);
    return all;
  }
  unsigned threads_seen() const { return threads_seen_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::uint64_t index = 0;
    std::uint64_t last = 0;
    std::uint64_t n = 0;
    Samples cycles;
  };
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> g{1};
    return g.fetch_add(1);
  }

  Tracer* tracer_;
  std::uint64_t generation_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<unsigned> threads_seen_{0};
};

struct Round {
  double setup_s = 0;
  double seconds = 0;
  std::uint64_t committed = 0;
  vrep::exec::SmpExecutor::Result result;
  Samples cycles;
  // Traced rounds only.
  Samples link_send;
  std::uint64_t send_ns = 0, recv_ns = 0, frames = 0, wire_bytes = 0, backup_recv_ns = 0;
  double tps() const { return seconds > 0 ? static_cast<double>(committed) / seconds : 0; }
};

Round run_round(std::uint64_t seed, Tracer* tracer, const Options& options, CalmGate& gate,
                ProcMeter& proc, Outcome& outcome) {
  gate.wait();
  Round round;
  const std::uint64_t t_setup = now_ns();
  CycleClock clock(tracer);
  vrep::exec::SmpConfig config;
  config.workload = vrep::wl::WorkloadKind::kOrderEntry;
  config.workers = kWorkers;
  config.partitions = kPartitions;
  config.partition_db_size = 4u << 20;
  config.txns_per_worker = kTxnsPerWorker;
  config.two_safe = true;
  config.commit_window = 8;
  config.group_size = 4;
  config.seed = seed;
  config.route = [&clock](std::uint32_t draw, std::size_t partitions) {
    return clock.route(draw, partitions);
  };

  vrep::net::InprocTransport primary_end, backup_end;
  vrep::net::InprocTransport::pair(primary_end, backup_end);
  vrep::net::TransportLink link{&primary_end};
  TimedLink timed_link(link, tracer);
  TimedTransport timed_backup_end(backup_end, tracer);
  vrep::repl::ReplicationLink* engine_link =
      tracer != nullptr ? static_cast<vrep::repl::ReplicationLink*>(&timed_link) : &link;
  vrep::net::Transport& serve_end =
      tracer != nullptr ? static_cast<vrep::net::Transport&>(timed_backup_end) : backup_end;

  vrep::exec::SmpExecutor executor(config, engine_link);
  vrep::rio::Arena arena = vrep::rio::Arena::create(executor.image_size());
  vrep::net::WireBackup backup(arena);
  std::thread serve([&] {
    vrep::net::WireBackup::ServeOptions serve_options;
    serve_options.idle_timeout_ms = 200;
    while (backup.serve(serve_end, serve_options) ==
           vrep::net::WireBackup::ServeResult::kPrimaryFailed) {
    }
  });
  if (!executor.sync_backup()) outcome.fail("backup sync failed");
  round.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  timed_link.reset();
  const std::uint64_t recv0 = timed_backup_end.recv_ns();
  // Root spans: the sequencer's send/ack-wait spans and the serve thread's
  // recv spans nest under them, so their self time is the work in between.
  const std::uint64_t sequencer_span = tracer != nullptr ? tracer->next_id() : 0;
  const std::uint64_t serve_span = tracer != nullptr ? tracer->next_id() : 0;
  timed_link.set_parent(sequencer_span);
  timed_backup_end.set_parent(serve_span);
  proc.start();
  const std::uint64_t t_run = now_ns();
  round.result = executor.run();
  const std::uint64_t run_ns = now_ns() - t_run;
  proc.stop();
  round.seconds = static_cast<double>(run_ns) / 1e9;
  round.committed = round.result.committed;
  round.backup_recv_ns = timed_backup_end.recv_ns() - recv0;
  round.frames = timed_link.frames();
  round.wire_bytes = timed_link.wire_bytes();
  round.send_ns = timed_link.send_ns();
  round.recv_ns = timed_link.recv_ns();
  round.link_send.merge(timed_link.send_samples());
  round.cycles = clock.collect();
  if (tracer != nullptr) {
    tracer->record_with_id(sequencer_span, "exec.sequencer", 0, 0, t_run, t_run + run_ns);
    tracer->record_with_id(serve_span, "backup.serve", 0, 0, t_run, t_run + run_ns);
  }
  // The main thread only blocks in run() while the engine's threads work.
  check_thread_budget(clock.threads_seen(), /*idle_controller=*/true, 0, outcome);

  primary_end.close_peer();
  serve.join();

  // Verdict: every committed transaction reached the backup, the images are
  // byte-identical, and each partition's Order-Entry invariants hold.
  if (options.inject == "backup_byte") arena.data()[executor.image_size() / 3] ^= 0x5a;
  if (backup.applied_seq() != round.committed) {
    outcome.fail("backup applied " + std::to_string(backup.applied_seq()) + " of " +
                 std::to_string(round.committed) + " committed");
  }
  const std::uint32_t primary_crc = vrep::Crc32::of(executor.image(), executor.image_size());
  if (primary_crc != vrep::Crc32::of(backup.db(), executor.image_size())) {
    outcome.fail("backup image CRC differs from the primary's");
  }
  const std::string consistency = executor.check_consistency();
  if (!consistency.empty()) outcome.fail("order-entry consistency: " + consistency);
  const std::uint64_t expected = std::uint64_t{kWorkers} * kTxnsPerWorker;
  outcome.attempted += expected;
  outcome.failed += expected > round.committed ? expected - round.committed : 0;
  return round;
}

}  // namespace

int run_smp_oe(const Options& options, Report& report, Outcome& outcome) {
  ProcMeter proc;     // rounds whose numbers are reported
  ProcMeter ignored;  // untraced rounds of a traced run
  CalmGate gate(options.calm_budget_s);
  std::vector<Round> untraced, traced;
  // Rounds until the measured time reaches the budget.
  double measured = 0;
  for (unsigned r = 0; r < kMaxRounds && (r < kMinRounds || measured < options.seconds);
       ++r) {
    const std::uint64_t seed = derive_seed(options.seed, 200 + r / (options.trace ? 2 : 1));
    Tracer tracer;
    const bool traced_round = options.trace && r % 2 == 1;
    Round round = run_round(seed, traced_round ? &tracer : nullptr, options, gate,
                            traced_round || !options.trace ? proc : ignored, outcome);
    measured += round.seconds;
    std::printf("  round: setup %.4f s, %.3f s, %llu txns, %.0f txn/s, %llu queue-full waits%s\n",
                round.setup_s, round.seconds, static_cast<unsigned long long>(round.committed),
                round.tps(), static_cast<unsigned long long>(round.result.queue_full_waits),
                traced_round ? " (traced)" : "");
    if (traced_round && traced.empty()) report_trace(tracer, options.trace_out);
    (traced_round ? traced : untraced).push_back(std::move(round));
  }

  gate.print();
  std::vector<double> u_tps, t_tps, setup;
  Windowed cycles;  // one window per round
  std::uint64_t txns = 0;
  for (Round& r : untraced) {
    u_tps.push_back(r.tps());
    setup.push_back(r.setup_s);
    cycles.append(r.cycles);
    txns += r.committed;
  }
  if (!options.trace) {
    report.set("setup_s", median(setup), setup.size());
    report.set("txn_per_s", median(u_tps), u_tps.size());
    report.set("max_rate_ops_s", median(u_tps), u_tps.size());
    report.set_latency("txn", cycles);
    proc.report(report, txns);
    return 0;
  }

  Windowed link_send;
  std::uint64_t t_txns = 0, run_ns = 0, send_ns = 0, recv_ns = 0, frames = 0, bytes = 0,
                backup_recv = 0, queue_waits = 0, latch = 0;
  for (Round& r : traced) {
    t_tps.push_back(r.tps());
    link_send.append(r.link_send);
    t_txns += r.committed;
    run_ns += static_cast<std::uint64_t>(r.seconds * 1e9);
    send_ns += r.send_ns;
    recv_ns += r.recv_ns;
    frames += r.frames;
    bytes += r.wire_bytes;
    backup_recv += r.backup_recv_ns;
    queue_waits += r.result.queue_full_waits;
    latch += r.result.latch_contended;
  }
  const double n = t_txns > 0 ? static_cast<double>(t_txns) : 1.0;
  const double wall = run_ns > 0 ? static_cast<double>(run_ns) : 1.0;
  report.set("exec.queue_full_waits_per_txn", static_cast<double>(queue_waits) / n, t_txns);
  report.set("exec.latch_contended_per_txn", static_cast<double>(latch) / n, t_txns);
  report.set_latency("repl.link_send", link_send);
  report.set("repl.link_send_share", static_cast<double>(send_ns) / wall, link_send.count());
  report.set("repl.ack_recv_share", static_cast<double>(recv_ns) / wall, link_send.count());
  report.set("repl.sequencer_self_share",
             1.0 - static_cast<double>(send_ns + recv_ns) / wall, link_send.count());
  report.set("repl.frames_per_txn", static_cast<double>(frames) / n, t_txns);
  report.set("repl.wire_bytes_per_txn", static_cast<double>(bytes) / n, t_txns);
  report.set("backup.recv_idle_share", static_cast<double>(backup_recv) / wall, t_txns);
  const double u = median(u_tps);
  const double t = median(t_tps);
  report.set("trace.overhead_pct", u > 0 ? (u - t) / u * 100.0 : 0, t_tps.size());
  proc.report(report, t_txns);
  std::printf("smp_oe traced: untraced %.0f txn/s, traced %.0f txn/s\n", u, t);
  return 0;
}

}  // namespace perfbench
