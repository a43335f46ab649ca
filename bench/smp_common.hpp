// Shared driver for the wall-clock SMP benches (smp_debitcredit,
// smp_orderentry). Unlike the fig2/fig3 binaries — which *simulate* an SMP
// primary by running independent streams against the cost model — these
// spawn real OS threads through exec::SmpExecutor and measure elapsed time,
// sweeping the worker count (--threads 1,2,4) against a live in-process
// backup (2-safe, group commit W=8/G=4, matching the paper's replicated
// configuration).
//
// Wall-clock numbers are machine-dependent, so the emitted JSON marks the
// root with "wallclock": true plus the host's "hw_threads"; check_drift.py
// switches to shape mode for these files: deterministic fields (committed
// counts, config identity, crc_match) are compared exactly, while
// seconds/tps are only sanity- and shape-checked (monotone scaling when the
// host actually has the cores). See EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/smp_executor.hpp"
#include "net/inproc_transport.hpp"
#include "net/wire_repl.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace vrep::bench {

// "--threads 1,2,4" -> {1,2,4}; any non-digit separates; empty -> default.
inline std::vector<unsigned> parse_threads_list(const std::string& spec) {
  std::vector<unsigned> out;
  unsigned cur = 0;
  bool have = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<unsigned>(c - '0');
      have = true;
    } else {
      if (have && cur > 0) out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have && cur > 0) out.push_back(cur);
  if (out.empty()) out = {1, 2, 4};
  return out;
}

inline int run_smp_bench_main(int argc, char** argv, wl::WorkloadKind kind,
                              const char* bench_name, const char* title) {
  const CliArgs args(argc, argv);
  JsonReport report(args, bench_name);
  const unsigned hw = std::thread::hardware_concurrency();
  report.set_root("wallclock", Json(true));
  report.set_root("hw_threads", Json(hw));

  std::uint64_t txns = kind == wl::WorkloadKind::kDebitCredit ? 30'000 : 15'000;
  if (args.has("quick")) txns = 5'000;
  txns = static_cast<std::uint64_t>(args.get_int("txns", static_cast<std::int64_t>(txns)));
  const std::vector<unsigned> sweep = parse_threads_list(args.get_string("threads", "1,2,4"));

  Table table(std::string(title) + " (wall clock, 2-safe W=8 G=4, hw_threads=" +
              std::to_string(hw) + ")");
  table.set_header({"workers", "partitions", "committed", "seconds", "tps",
                    "latch waits", "queue waits"});

  for (const unsigned workers : sweep) {
    exec::SmpConfig config;
    config.workload = kind;
    config.workers = workers;
    config.txns_per_worker = txns;
    config.two_safe = true;
    config.commit_window = 8;
    config.group_size = 4;
    if (kind == wl::WorkloadKind::kOrderEntry) config.partition_db_size = 4u << 20;

    net::InprocTransport primary_end, backup_end;
    net::InprocTransport::pair(primary_end, backup_end);
    exec::SmpExecutor executor(config, &primary_end);
    rio::Arena arena = rio::Arena::create(executor.image_size());
    net::WireBackup backup(arena);
    std::thread serve([&] {
      net::WireBackup::ServeOptions options;
      options.idle_timeout_ms = 200;
      while (backup.serve(backup_end, options) ==
             net::WireBackup::ServeResult::kPrimaryFailed) {
      }
    });
    VREP_CHECK(executor.sync_backup());
    const auto result = executor.run();
    primary_end.close_peer();
    serve.join();

    // The bench doubles as a correctness gate: every committed transaction
    // must have reached the backup and the images must be byte-identical.
    VREP_CHECK(backup.applied_seq() == result.committed);
    const bool crc_match = Crc32::of(executor.image(), executor.image_size()) ==
                           Crc32::of(backup.db(), executor.image_size());
    VREP_CHECK(crc_match);

    Json cell = Json::object();
    cell.set("name", std::to_string(workers) + "w");
    cell.set("workload", wl::workload_name(kind));
    cell.set("workers", Json(workers));
    cell.set("partitions", Json(executor.partition_count()));
    cell.set("txns_per_worker", Json(txns));
    cell.set("committed", Json(result.committed));
    cell.set("window", Json(config.commit_window));
    cell.set("group", Json(config.group_size));
    cell.set("two_safe", Json(config.two_safe));
    cell.set("backup_applied", Json(backup.applied_seq()));
    cell.set("crc_match", Json(crc_match));
    cell.set("seconds", Json(result.seconds));
    cell.set("tps", Json(result.tps));
    cell.set("latch_contended", Json(result.latch_contended));
    cell.set("queue_full_waits", Json(result.queue_full_waits));
    report.add_cell(std::move(cell));

    char secs[32];
    std::snprintf(secs, sizeof secs, "%.3f", result.seconds);
    table.add_row({std::to_string(workers), std::to_string(executor.partition_count()),
                   Table::num(result.committed), secs, tps_cell(result.tps),
                   Table::num(result.latch_contended),
                   Table::num(result.queue_full_waits)});
  }
  table.print();
  return report.write() ? 0 : 1;
}

}  // namespace vrep::bench
