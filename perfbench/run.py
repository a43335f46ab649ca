#!/usr/bin/env python3
"""Build and run the commit-path benchmark.

    python3 perfbench/run.py --workload shard_dc|smp_oe|client_kv|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into .bench_build/; later calls rebuild only what changed. Build output goes
to stderr. The benchmark's stdout is passed through once its last line, the
JSON result, has been checked against the metric names and units in
BENCHMARK.json. Exits non-zero, without a result, when the build fails, the
run fails its correctness verdict, or the result does not match.

Before each measured round the benchmark waits for the host to stop
stealing CPU (see README.md). The waits of all runs in one checkout share a
budget kept in .bench_build/host_wait_s, so a host that stays contended
costs at most CHECKOUT_WAIT_BUDGET_S in all.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["shard_dc", "smp_oe", "client_kv"]
RUN_TIMEOUT_S = 170
WAIT_LEDGER = os.path.join(BUILD, "host_wait_s")
CHECKOUT_WAIT_BUDGET_S = 1000
RUN_WAIT_BUDGET_S = 100


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
              "perfbench_selftest"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected keys %s" % sorted(result)
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return "metrics differ from BENCHMARK.json: %s" % diff
    return None


def waited_so_far():
    try:
        with open(WAIT_LEDGER) as f:
            return float(f.read())
    except (OSError, ValueError):
        return 0.0


def run_one(workload, seed, seconds, trace, extra=()):
    spent = waited_so_far()
    budget = max(0.0, min(RUN_WAIT_BUDGET_S, CHECKOUT_WAIT_BUDGET_S - spent))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--calm-budget", "%.1f" % budget]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%s.tsv" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish within %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    waited = sum(float(s) for s in re.findall(r"^host: waited ([0-9.]+) s", proc.stdout, re.M))
    with open(WAIT_LEDGER, "w") as f:
        f.write("%.3f\n" % (spent + waited))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        problem = "exit code %d" % proc.returncode
    else:
        problem = check_result(lines[-1], trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("run.py: %s: %s\n" % (workload, problem))
        return proc.returncode or 1, proc.stdout
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0, proc.stdout


def selftest():
    """Percentile and self-time checks, then proof that the verdict bites:
    clean runs pass, a corrupted backup byte or a wrong read value fails."""
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        return 1
    cases = [(w, [], True, "PASS") for w in WORKLOADS]
    cases += [("shard_dc", ["--inject", "backup_byte"], False, "shard 0"),
              ("smp_oe", ["--inject", "backup_byte"], False, "backup image CRC"),
              ("client_kv", ["--inject", "backup_byte"], False, "backup image CRC"),
              ("client_kv", ["--inject", "read_value"], False, "bytes other than those written")]
    failures = 0
    for workload, extra, should_pass, needle in cases:
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", "7",
               "--seconds", "5", "--trace", "0", "--calm-budget", "0"] + extra
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        verdict = next((l for l in proc.stdout.split("\n") if l.startswith("verdict:")), "")
        ok = (proc.returncode == 0) == should_pass and needle in verdict
        failures += 0 if ok else 1
        print("%s %-9s %-22s exit %d, %s" % ("ok  " if ok else "FAIL", workload,
                                            " ".join(extra) or "(clean)", proc.returncode,
                                            verdict or "no verdict"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selftest:
        return selftest()
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run_one(workload, args.seed, args.seconds, bool(args.trace))[0] or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
