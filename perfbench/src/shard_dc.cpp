// Workload shard_dc: shard::ShardedCluster, 4 shards x 1 backup, 2-safe,
// over the cluster's inline carrier. One closed-loop driver per shard (the
// main thread is driver 0) calls execute() on pre-drawn Debit-Credit plans,
// 10% of them cross-shard 2PC. Working set: 4 x 256 KiB.
//
// The run is split into rounds, each on a freshly built cluster: set-up
// (build, seed, draw plans, start drivers) is timed per round, throughput
// is the median round, latency percentiles pool every execute() call.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kShards = 4;
constexpr double kRemoteFraction = 0.10;
constexpr std::size_t kPlanPool = 1u << 15;  // plans per driver, cycled
constexpr unsigned kRounds = 5;
constexpr unsigned kExtraSetups = 6;             // set-up only, for setup_s
constexpr std::size_t kSamplesPerDriver = 1u << 16;  // latency reservoir per round

struct Round {
  double setup_s = 0;
  double seconds = 0;
  std::uint64_t txns = 0;
  std::uint64_t cross = 0;
  std::uint64_t aborted = 0;
  std::uint64_t cpu_ns = 0;   // driver threads' CPU time
  std::uint64_t wall_ns = 0;  // driver threads' wall time
  Samples all, local, cross_lat;
  double tps() const { return seconds > 0 ? static_cast<double>(txns) / seconds : 0; }
};

struct Driver {
  explicit Driver(std::uint64_t seed)
      : local(kSamplesPerDriver, seed), cross(kSamplesPerDriver, seed + 1) {}
  std::vector<vrep::shard::TxnDecision> plans;
  Reservoir local, cross;
  std::uint64_t txns = 0;
  std::uint64_t cross_txns = 0;
  std::uint64_t aborted = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t wall_ns = 0;
};

Round run_round(unsigned shards, std::uint64_t seed, double seconds, Tracer* tracer,
                const Options& options, CalmGate& gate, ProcMeter& proc, Outcome& outcome) {
  if (seconds > 0) gate.wait();
  Round round;
  const std::uint64_t t_setup = now_ns();
  vrep::shard::ShardedConfig config;
  config.shards = shards;
  config.backups_per_shard = 1;
  config.shard_db_size = 256u << 10;
  config.two_safe = true;
  auto cluster = std::make_unique<vrep::shard::ShardedCluster>(config);
  const vrep::shard::Router router(cluster->map());

  const unsigned drivers = shards;  // one driver per shard
  std::vector<Driver> d;
  for (unsigned t = 0; t < drivers; ++t) d.emplace_back(derive_seed(seed, 1000 + t));
  for (unsigned t = 0; t < drivers; ++t) {
    // Half the pool is drawn, the other half repeats it with every amount
    // negated: each pass over the pool nets to zero, so cycling it for any
    // length of run never overflows the workload's 32-bit balances.
    vrep::Rng rng(derive_seed(seed, t));
    std::vector<vrep::shard::TxnDecision>& plans = d[t].plans;
    plans.reserve(kPlanPool);
    for (std::size_t i = 0; i < kPlanPool / 2; ++i) {
      plans.push_back(
          vrep::shard::plan_txn(router, cluster->workload(), shards, rng, kRemoteFraction));
    }
    for (std::size_t i = 0; i < kPlanPool / 2; ++i) {
      plans.push_back(plans[i]);
      plans.back().plan.amount = -plans[i].plan.amount;
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const auto deadline_ns = static_cast<std::uint64_t>(seconds * 1e9);
  auto body = [&](unsigned t) {
    Driver& me = d[t];
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t w0 = now_ns();
    const std::uint64_t root = tracer != nullptr ? tracer->next_id() : 0;
    std::uint64_t i = 0;
    for (; !stop.load(std::memory_order_relaxed); ++i) {
      const vrep::shard::TxnDecision& plan = me.plans[i % kPlanPool];
      const std::uint64_t t0 = now_ns();
      const bool ok = cluster->execute(plan);
      const std::uint64_t t1 = now_ns();
      (plan.cross ? me.cross : me.local).add(t1 - t0);
      me.cross_txns += plan.cross ? 1 : 0;
      me.aborted += ok ? 0 : 1;
      if (tracer != nullptr) {
        tracer->record(plan.cross ? "shard.execute_cross" : "shard.execute_local", root,
                       (std::uint64_t{t} << 40) | i, t0, t1);
      }
      if (t == 0 && (i & 127) == 0 && t1 - w0 >= deadline_ns) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    me.txns = i;
    me.wall_ns = now_ns() - w0;
    me.cpu_ns = thread_cpu_ns() - cpu0;
    if (tracer != nullptr) tracer->record_with_id(root, "driver", 0, t, w0, w0 + me.wall_ns);
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < drivers; ++t) threads.emplace_back(body, t);
  const unsigned os = os_threads(hw_threads());
  round.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  check_thread_budget(os, /*idle_controller=*/false, 0, outcome);
  if (seconds <= 0) {  // set-up only: one more setup_s sample
    stop.store(true, std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    return round;
  }

  proc.start();
  const std::uint64_t t_run = now_ns();
  go.store(true, std::memory_order_release);
  body(0);
  for (std::thread& th : threads) th.join();
  round.seconds = static_cast<double>(now_ns() - t_run) / 1e9;
  proc.stop();

  for (Driver& me : d) {
    round.txns += me.txns;
    round.cross += me.cross_txns;
    round.aborted += me.aborted;
    round.cpu_ns += me.cpu_ns;
    round.wall_ns += me.wall_ns;
    round.local.merge(me.local.samples());
    round.cross_lat.merge(me.cross.samples());
  }
  round.all.merge(round.local);
  round.all.merge(round.cross_lat);

  // Verdict: every replica byte-identical to its primary, the global
  // balance invariant intact, nothing left in doubt, and every commit
  // accounted for (a cross-shard commit also burns a prepare seq on its
  // remote shard).
  if (options.inject == "backup_byte") {
    auto* image = const_cast<std::uint8_t*>(cluster->backup_db(0, 0));
    image[cluster->workload_bytes() / 2] ^= 0x5a;
  }
  std::uint64_t committed = 0;
  for (vrep::shard::ShardId id = 0; id < shards; ++id) {
    const std::string replicas = cluster->check_replicas(id);
    if (!replicas.empty()) outcome.fail("shard " + std::to_string(id) + ": " + replicas);
    if (cluster->in_doubt(id) != 0) outcome.fail("shard " + std::to_string(id) + ": in doubt");
    committed += cluster->shard_committed(id);
  }
  const std::string global = cluster->check_global_consistency();
  if (!global.empty()) outcome.fail("global consistency: " + global);
  if (round.aborted == 0 && committed != round.txns + round.cross) {
    outcome.fail("committed sequences " + std::to_string(committed) + " for " +
                 std::to_string(round.txns) + " transactions");
  }
  outcome.attempted += round.txns;
  outcome.failed += round.aborted;
  return round;
}

}  // namespace

int run_shard_dc(const Options& options, Report& report, Outcome& outcome) {
  const double round_s = options.seconds / kRounds;
  ProcMeter proc;
  ProcMeter traced_proc;
  ProcMeter scratch_proc;
  CalmGate gate(options.calm_budget_s);
  std::vector<Round> untraced, traced;
  if (!options.trace) {
    for (unsigned r = 0; r < kRounds; ++r) {
      untraced.push_back(run_round(kShards, derive_seed(options.seed, 100 + r), round_s,
                                   nullptr, options, gate, proc, outcome));
    }
  } else {
    // Alternate untraced and traced rounds on the same seeds, then the
    // 1-shard, 1-driver reference cell.
    Tracer tracer;
    for (unsigned r = 0; r < 2; ++r) {
      const std::uint64_t seed = derive_seed(options.seed, 100 + r);
      untraced.push_back(
          run_round(kShards, seed, round_s, nullptr, options, gate, proc, outcome));
      traced.push_back(
          run_round(kShards, seed, round_s, &tracer, options, gate, traced_proc, outcome));
    }
    const Round ref = run_round(1, derive_seed(options.seed, 99), round_s, nullptr, options,
                                gate, scratch_proc, outcome);
    gate.print();
    report_trace(tracer, options.trace_out);

    std::vector<double> u_tps, t_tps;
    for (const Round& r : untraced) u_tps.push_back(r.tps());
    for (const Round& r : traced) t_tps.push_back(r.tps());
    const double u = median(u_tps);
    const double t = median(t_tps);
    Windowed local, cross;
    std::uint64_t txns = 0, xs = 0, aborted = 0, cpu = 0, wall = 0;
    for (Round& r : traced) {
      local.append(r.local);
      cross.append(r.cross_lat);
      txns += r.txns;
      xs += r.cross;
      aborted += r.aborted;
      cpu += r.cpu_ns;
      wall += r.wall_ns;
    }
    report.set_latency("shard.exec_local", local);
    report.set_latency("shard.exec_cross", cross);
    report.set("shard.offcpu_share", wall > 0 ? 1.0 - static_cast<double>(cpu) / wall : 0, txns);
    report.set("shard.cross_share", txns > 0 ? static_cast<double>(xs) / txns : 0, txns);
    report.set("shard.abort_share", txns > 0 ? static_cast<double>(aborted) / txns : 0, txns);
    report.set("shard.speedup_vs_1shard", ref.tps() > 0 ? u / ref.tps() : 0, untraced.size());
    report.set("trace.overhead_pct", u > 0 ? (u - t) / u * 100.0 : 0, traced.size());
    traced_proc.report(report, txns);
    std::printf("shard_dc traced: untraced %.0f txn/s, traced %.0f txn/s, 1-shard reference "
                "%.0f txn/s\n", u, t, ref.tps());
    return 0;
  }

  std::vector<double> tps, setup;
  for (unsigned r = 0; r < kExtraSetups; ++r) {
    setup.push_back(run_round(kShards, derive_seed(options.seed, 200 + r), 0, nullptr, options,
                              gate, scratch_proc, outcome)
                        .setup_s);
  }
  gate.print();
  Windowed lat;  // one window per round
  std::uint64_t txns = 0;
  for (Round& r : untraced) {
    tps.push_back(r.tps());
    setup.push_back(r.setup_s);
    lat.append(r.all);
    txns += r.txns;
    std::printf("  round: setup %.4f s, %.3f s, %llu txns, %.0f txn/s, %llu cross\n", r.setup_s,
                r.seconds, static_cast<unsigned long long>(r.txns), r.tps(),
                static_cast<unsigned long long>(r.cross));
  }
  report.set("setup_s", median(setup), setup.size());
  report.set("txn_per_s", median(tps), tps.size());
  // A closed loop runs at the highest rate it sustains: one op is one txn.
  report.set("max_rate_ops_s", median(tps), tps.size());
  report.set_latency("txn", lat);
  proc.report(report, txns);
  return 0;
}

}  // namespace perfbench
