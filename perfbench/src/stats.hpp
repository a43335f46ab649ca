// Measurement primitives of the benchmark: raw-sample percentiles, the
// metric catalogue every run reports from, and the in-memory span trace.
//
// No number here goes through util::Histogram: percentiles are exact
// nearest-rank values over every recorded sample.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Raw samples (nanoseconds or any other non-negative integer quantity).
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::uint64_t v) { v_.push_back(v); }
  void merge(const Samples& other) { v_.insert(v_.end(), other.v_.begin(), other.v_.end()); }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  // Exact nearest-rank percentile: the smallest sample with at least
  // ceil(q * n) samples at or below it (q in (0, 1]). 0 when empty. Reorders
  // the samples (selection, not a full sort).
  std::uint64_t percentile(double q);
  void replace(std::size_t i, std::uint64_t v) { v_[i] = v; }

 private:
  std::vector<std::uint64_t> v_;
};

// At most `capacity` raw samples: a uniform random subset of everything
// added (Algorithm R), so memory stays fixed however many operations a run
// completes and peak RSS does not grow with throughput.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : capacity_(capacity), state_(seed | 1) {
    samples_.reserve(capacity);
  }
  void add(std::uint64_t v) {
    if (seen_++ < capacity_) {
      samples_.add(v);
      return;
    }
    const std::uint64_t j = next() % seen_;
    if (j < capacity_) samples_.replace(static_cast<std::size_t>(j), v);
  }
  const Samples& samples() const { return samples_; }

 private:
  std::uint64_t next() {  // xorshift64*
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  Samples samples_;
};

// Samples split into consecutive windows (rounds of a run, or time slices
// of one step). A percentile is taken exactly inside each window and the
// median across windows is reported, so a stall confined to a few windows
// (a preempted virtual CPU, say) cannot move it.
class Windowed {
 public:
  explicit Windowed(std::size_t windows = 0) : w_(windows) {}
  // Window i (clamped to the last one).
  Samples& at(std::size_t i) { return w_[std::min(i, w_.size() - 1)]; }
  void append(const Samples& window) { w_.push_back(window); }
  std::size_t count() const;
  bool empty() const { return count() == 0; }
  // Median over the non-empty windows of each window's exact percentile q.
  double percentile(double q);
  // Each window's exact percentile q (0 for an empty window).
  std::vector<double> per_window(double q);
  // The windows whose flag is set.
  Windowed select(const std::vector<bool>& keep) const;

 private:
  std::vector<Samples> w_;
};

// 1-based nearest rank of quantile q over n samples, in integer arithmetic
// (q is rounded to parts per million so 0.99 * 100 is exactly rank 99).
std::size_t nearest_rank(double q, std::size_t n);

// Median of a small set of per-round values (mean of the middle two when
// even). 0 when empty.
double median(std::vector<double> values);

// ---- metric catalogue -------------------------------------------------------

enum class Tier { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Tier tier;
};

// Every metric the benchmark reports, in print order. BENCHMARK.json lists
// the same names and units; run.py checks that they agree.
const std::vector<MetricSpec>& catalogue();

// One run's measured values, keyed by catalogue name.
class Report {
 public:
  void set(const std::string& name, double value, std::uint64_t samples);
  // Samples in microseconds from nanoseconds: p50 and p99 under `prefix`
  // ("txn" -> txn_p50_us / txn_p99_us), each with the sample count.
  void set_latency(const std::string& prefix, Samples& ns, bool p99 = true);
  void set_latency(const std::string& prefix, Windowed& ns, bool p99 = true);

  // Human-readable table of every metric of `tier`, then the one-line JSON
  // result. Returns false (printing nothing) when an end-to-end metric is
  // missing or any reported value is not a finite number.
  bool print(Tier tier, bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::uint64_t samples;
  };
  std::map<std::string, Value> values_;
};

// ---- span trace -------------------------------------------------------------

// One timed interval at a layer boundary, recorded from the benchmark's own
// code (driver loops, bound hooks, link/transport decorators).
struct Span {
  const char* name;
  std::uint64_t id;      // unique within the trace
  std::uint64_t parent;  // 0 = root
  std::uint64_t op;      // transaction / client-op id the span belongs to
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

// Spans are appended to per-thread buffers (no lock on the hot path), kept
// in memory, and merged when the run ends. Each buffer is bounded; spans
// past the bound are counted as dropped.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 1u << 17;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Record a finished span from the calling thread.
  void record(const char* name, std::uint64_t parent, std::uint64_t op,
                       std::uint64_t start_ns, std::uint64_t end_ns);
  // Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                      std::uint64_t op, std::uint64_t start_ns, std::uint64_t end_ns);

  // Quiesced: every recording thread has finished.
  std::vector<Span> collect() const;
  std::uint64_t dropped() const;

  struct LayerTime {
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;  // total minus the part its child spans cover
  };
  // Per span name: count, total and self time.
  static std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans);
  // Write spans as tab-separated text (name, id, parent, op, start, end).
  static bool write_tsv(const std::vector<Span>& spans, const std::string& path);

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };
  Buffer& local();

  std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Print the per-layer self-time table of a trace and, when `path` is not
// empty, write the spans there.
void report_trace(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
