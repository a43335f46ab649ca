// perfbench: one workload per invocation.
//
//   perfbench --workload shard_dc|smp_oe|client_kv --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--inject backup_byte|read_value]
//             [--calm-budget S]
//
// --trace 0 measures the end-to-end metrics with nothing attached but the
// driver's own clocks; --trace 1 is a separate run with the decorators and
// hook timers on, printing the per-layer metrics. Every metric is printed
// with its unit and sample count; the last line of stdout is the JSON
// result. A failed correctness verdict exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "probes.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload shard_dc|smp_oe|client_kv --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--inject backup_byte|read_value] "
               "[--calm-budget S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--inject") {
      options.inject = value;
    } else if (arg == "--calm-budget") {
      options.calm_budget_s = std::strtod(value, nullptr);
    } else {
      usage();
      return 2;
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 120) ||
      !(options.calm_budget_s >= 0 && options.calm_budget_s <= 120) ||
      (!options.inject.empty() && options.inject != "backup_byte" &&
       options.inject != "read_value")) {
    usage();
    return 2;
  }

  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d, %u hardware threads\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, perfbench::hw_threads());
  perfbench::Report report;
  perfbench::Outcome outcome;
  int rc = 0;
  if (options.workload == "shard_dc") {
    rc = perfbench::run_shard_dc(options, report, outcome);
  } else if (options.workload == "smp_oe") {
    rc = perfbench::run_smp_oe(options, report, outcome);
  } else if (options.workload == "client_kv") {
    rc = perfbench::run_client_kv(options, report, outcome);
  } else {
    usage();
    return 2;
  }
  if (rc != 0) return rc;
  if (outcome.attempted == 0) outcome.fail("no operation was attempted");

  std::printf("verdict: %s%s%s\n", outcome.correct ? "PASS" : "FAIL",
              outcome.correct ? "" : ": ", outcome.violation.c_str());
  const perfbench::Tier tier =
      options.trace ? perfbench::Tier::kPerLayer : perfbench::Tier::kEndToEnd;
  if (!report.print(tier, outcome.correct, outcome.attempted, outcome.failed)) return 1;
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
