// Self-test of the benchmark's own measurement code: exact percentiles
// against a full sort over random distributions (including the all-equal
// case a bucketed histogram gets wrong), the windowed median, and span
// self time. Exits 1 on the first wrong answer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "util/rng.hpp"

namespace {

int g_checks = 0;
int g_failures = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// Reference: sort everything, take the nearest rank ceil(q * n).
std::uint64_t sorted_percentile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void check_distribution(const std::string& name, const std::vector<std::uint64_t>& values) {
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    perfbench::Samples s;
    for (const std::uint64_t v : values) s.add(v);
    const std::uint64_t got = s.percentile(q);
    const std::uint64_t want = sorted_percentile(values, q);
    expect(got == want, name + " n=" + std::to_string(values.size()) + " q=" +
                            std::to_string(q) + ": got " + std::to_string(got) + ", sort gives " +
                            std::to_string(want));
  }
}

void percentiles() {
  vrep::Rng rng(42);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 1000u, 12345u, 100000u}) {
    std::vector<std::uint64_t> uniform, expo, heavy, bimodal, ones, zeros;
    for (std::size_t i = 0; i < n; ++i) {
      uniform.push_back(rng.below(1'000'000));
      expo.push_back(static_cast<std::uint64_t>(-std::log(1.0 - rng.next_double()) * 5'000));
      heavy.push_back(static_cast<std::uint64_t>(1000.0 / std::pow(1.0 - rng.next_double(), 1.5)));
      bimodal.push_back(rng.below(10) == 0 ? 900'000 + rng.below(1000) : 100 + rng.below(50));
      ones.push_back(1);
      zeros.push_back(0);
    }
    check_distribution("uniform", uniform);
    check_distribution("exponential", expo);
    check_distribution("pareto", heavy);
    check_distribution("bimodal", bimodal);
    check_distribution("all-ones", ones);
    check_distribution("all-zeros", zeros);
  }
  // The case util::Histogram gets wrong: every sample 1 must give p50 = 1.
  perfbench::Samples ones;
  for (int i = 0; i < 1000; ++i) ones.add(1);
  expect(ones.percentile(0.5) == 1 && ones.percentile(0.99) == 1, "all-ones p50/p99 == 1");
  // Exact ranks at the boundaries.
  perfbench::Samples hundred;
  for (std::uint64_t i = 1; i <= 100; ++i) hundred.add(101 - i);
  expect(hundred.percentile(0.99) == 99, "1..100 p99 == 99");
  expect(hundred.percentile(0.5) == 50, "1..100 p50 == 50");
  expect(hundred.percentile(1.0) == 100, "1..100 p100 == 100");
  expect(perfbench::nearest_rank(0.99, 100) == 99, "nearest_rank(0.99, 100) == 99");
  expect(perfbench::nearest_rank(0.5, 1) == 1, "nearest_rank(0.5, 1) == 1");
  perfbench::Samples empty;
  expect(empty.percentile(0.5) == 0, "empty percentile is 0");
}

void windowed() {
  // Five windows with p99 of 10, 20, 30, 1000, 40: the median is 30, so one
  // stalled window does not move it.
  perfbench::Windowed w(5);
  const std::uint64_t tails[] = {10, 20, 30, 1000, 40};
  for (std::size_t i = 0; i < 5; ++i) {
    for (int k = 0; k < 99; ++k) w.at(i).add(1);
    w.at(i).add(tails[i]);
  }
  expect(w.percentile(1.0) == 30, "windowed median of per-window maxima");
  expect(w.percentile(0.5) == 1, "windowed median of per-window p50");
  expect(w.count() == 500, "windowed count");
  expect(perfbench::median({3, 1, 2, 10}) == 2.5, "median of an even count");
}

void self_time() {
  using perfbench::Span;
  // Parent [0, 100) with children [10, 30) and [50, 120): the second is
  // clipped to the parent, so self = 100 - 20 - 50 = 30.
  const std::vector<Span> spans = {
      {"parent", 1, 0, 0, 0, 100},
      {"child", 2, 1, 0, 10, 30},
      {"child", 3, 1, 0, 50, 120},
  };
  const auto times = perfbench::Tracer::self_times(spans);
  expect(times.at("parent").self_ns == 30, "parent self time");
  expect(times.at("parent").total_ns == 100, "parent total time");
  expect(times.at("child").self_ns == 90 && times.at("child").spans == 2, "child self time");
}

}  // namespace

int main() {
  percentiles();
  windowed();
  self_time();
  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures, g_checks);
  return g_failures == 0 ? 0 : 1;
}
