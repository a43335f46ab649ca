#include "stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::size_t nearest_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const auto ppm = static_cast<std::uint64_t>(std::llround(std::clamp(q, 0.0, 1.0) * 1e6));
  // ceil(ppm * n / 1e6), at least 1.
  const std::uint64_t rank = (ppm * n + 999'999) / 1'000'000;
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n));
}

std::uint64_t Samples::percentile(double q) {
  if (v_.empty()) return 0;
  const std::size_t k = nearest_rank(q, v_.size()) - 1;
  std::nth_element(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(k), v_.end());
  return v_[k];
}

std::size_t Windowed::count() const {
  std::size_t n = 0;
  for (const Samples& s : w_) n += s.count();
  return n;
}

double Windowed::percentile(double q) {
  std::vector<double> per_window;
  for (Samples& s : w_) {
    if (!s.empty()) per_window.push_back(static_cast<double>(s.percentile(q)));
  }
  return median(std::move(per_window));
}

std::vector<double> Windowed::per_window(double q) {
  std::vector<double> out;
  for (Samples& s : w_) out.push_back(static_cast<double>(s.percentile(q)));
  return out;
}

Windowed Windowed::select(const std::vector<bool>& keep) const {
  Windowed out;
  for (std::size_t i = 0; i < w_.size() && i < keep.size(); ++i) {
    if (keep[i]) out.append(w_[i]);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> specs = {
      // End to end: what a client of the cluster sees, on every workload.
      {"setup_s", "s", Tier::kEndToEnd},
      {"txn_per_s", "txn/s", Tier::kEndToEnd},
      {"max_rate_ops_s", "ops/s", Tier::kEndToEnd},
      {"txn_p50_us", "us", Tier::kEndToEnd},
      {"txn_p99_us", "us", Tier::kEndToEnd},
      {"cpu_us_per_op", "us", Tier::kEndToEnd},
      {"peak_rss_mb", "MiB", Tier::kEndToEnd},
      // shard: ShardedCluster::execute on shard_dc.
      {"shard.exec_local_p50_us", "us", Tier::kPerLayer},
      {"shard.exec_local_p99_us", "us", Tier::kPerLayer},
      {"shard.exec_cross_p50_us", "us", Tier::kPerLayer},
      {"shard.exec_cross_p99_us", "us", Tier::kPerLayer},
      {"shard.offcpu_share", "ratio", Tier::kPerLayer},
      {"shard.cross_share", "ratio", Tier::kPerLayer},
      {"shard.abort_share", "ratio", Tier::kPerLayer},
      {"shard.speedup_vs_1shard", "ratio", Tier::kPerLayer},
      // exec: SmpExecutor on smp_oe.
      {"exec.queue_full_waits_per_txn", "1/txn", Tier::kPerLayer},
      {"exec.latch_contended_per_txn", "1/txn", Tier::kPerLayer},
      // repl: the primary's pipeline and its carrier.
      {"repl.link_send_p50_us", "us", Tier::kPerLayer},
      {"repl.link_send_p99_us", "us", Tier::kPerLayer},
      {"repl.link_send_share", "ratio", Tier::kPerLayer},
      {"repl.ack_recv_share", "ratio", Tier::kPerLayer},
      {"repl.sequencer_self_share", "ratio", Tier::kPerLayer},
      {"repl.frames_per_txn", "1/txn", Tier::kPerLayer},
      {"repl.wire_bytes_per_txn", "B/txn", Tier::kPerLayer},
      {"repl.submit_p50_us", "us", Tier::kPerLayer},
      {"repl.submit_p99_us", "us", Tier::kPerLayer},
      {"repl.poll_acks_p50_us", "us", Tier::kPerLayer},
      // backup: WireBackup serve loop and snapshot reads.
      {"backup.recv_idle_share", "ratio", Tier::kPerLayer},
      {"backup.read_p50_us", "us", Tier::kPerLayer},
      {"backup.read_p99_us", "us", Tier::kPerLayer},
      {"backup.read_lagging_share", "ratio", Tier::kPerLayer},
      // net: the AsyncServer front end on client_kv.
      {"net.ack_wait_p50_us", "us", Tier::kPerLayer},
      {"net.ack_wait_p99_us", "us", Tier::kPerLayer},
      {"net.frontend_p50_us", "us", Tier::kPerLayer},
      {"net.polls_per_s", "1/s", Tier::kPerLayer},
      {"net.ticket_pending_share", "ratio", Tier::kPerLayer},
      {"net.read_park_share", "ratio", Tier::kPerLayer},
      {"net.gen_lag_p99_us", "us", Tier::kPerLayer},
      // client: read-your-writes reads as the client sees them.
      {"client.read_p50_us", "us", Tier::kPerLayer},
      {"client.read_p99_us", "us", Tier::kPerLayer},
      // process, every workload.
      {"proc.vol_ctx_switches_per_op", "1/op", Tier::kPerLayer},
      {"proc.invol_ctx_switches_per_op", "1/op", Tier::kPerLayer},
      {"trace.overhead_pct", "%", Tier::kPerLayer},
  };
  return specs;
}

void Report::set(const std::string& name, double value, std::uint64_t samples) {
  values_[name] = Value{value, samples};
}

void Report::set_latency(const std::string& prefix, Samples& ns, bool p99) {
  const auto n = static_cast<std::uint64_t>(ns.count());
  set(prefix + "_p50_us", static_cast<double>(ns.percentile(0.50)) / 1e3, n);
  if (p99) set(prefix + "_p99_us", static_cast<double>(ns.percentile(0.99)) / 1e3, n);
}

void Report::set_latency(const std::string& prefix, Windowed& ns, bool p99) {
  const auto n = static_cast<std::uint64_t>(ns.count());
  set(prefix + "_p50_us", ns.percentile(0.50) / 1e3, n);
  if (p99) set(prefix + "_p99_us", ns.percentile(0.99) / 1e3, n);
}

bool Report::print(Tier tier, bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  std::string table;
  bool first = true;
  for (const MetricSpec& spec : catalogue()) {
    if (spec.tier != tier) continue;
    const auto it = values_.find(spec.name);
    if (it == values_.end() && tier == Tier::kEndToEnd) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s was not measured\n", spec.name);
      return false;
    }
    const Value v = it == values_.end() ? Value{0.0, 0} : it->second;
    if (!std::isfinite(v.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", spec.name);
      return false;
    }
    char line[192];
    if (it == values_.end()) {
      std::snprintf(line, sizeof line, "  %-34s %14s %-6s (not on this workload's path)\n",
                    spec.name, "0", spec.unit);
    } else {
      std::snprintf(line, sizeof line, "  %-34s %14.4f %-6s n=%" PRIu64 "\n", spec.name,
                    v.value, spec.unit, v.samples);
    }
    table += line;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v.value);
    json += first ? "" : ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + num + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s metrics:\n%s", tier == Tier::kEndToEnd ? "end-to-end" : "per-layer",
              table.c_str());
  std::printf("failed_op_ratio %.6f (failed %" PRIu64 " of %" PRIu64 " attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              failed, attempted);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

// ---- Tracer -----------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_tracer_generation{1};
}  // namespace

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  // One buffer per (thread, tracer); the generation number tells a stale
  // thread-local from this tracer's even when a new tracer reuses an address.
  thread_local std::uint64_t tl_generation = 0;
  thread_local Buffer* tl_buffer = nullptr;
  if (tl_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(4096);
    tl_buffer = buffers_.back().get();
    tl_generation = generation_;
  }
  return *tl_buffer;
}

void Tracer::record(const char* name, std::uint64_t parent, std::uint64_t op,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
  record_with_id(next_id(), name, parent, op, start_ns, end_ns);
}

void Tracer::record_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                            std::uint64_t op, std::uint64_t start_ns, std::uint64_t end_ns) {
  Buffer& buf = local();
  if (buf.spans.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(Span{name, id, parent, op, start_ns, end_ns});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  return all;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->dropped;
  return n;
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  // Child time covered inside each parent's interval. Children of one
  // parent are sequential at every boundary the benchmark records, so their
  // clipped durations add up without double counting.
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;  // parent dropped at the buffer bound
    const Span& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second] += hi - lo;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    LayerTime& lt = out[s.name];
    lt.spans += 1;
    lt.total_ns += dur;
    lt.self_ns += dur > covered[i] ? dur - covered[i] : 0;
  }
  return out;
}

bool Tracer::write_tsv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tid\tparent\top\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.op << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void report_trace(const Tracer& tracer, const std::string& path) {
  const std::vector<Span> spans = tracer.collect();
  std::printf("trace: %zu spans kept, %" PRIu64 " dropped at the per-thread bound\n",
              spans.size(), tracer.dropped());
  std::printf("  %-28s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, lt] : Tracer::self_times(spans)) {
    std::printf("  %-28s %10" PRIu64 " %14.3f %14.3f\n", name.c_str(), lt.spans,
                static_cast<double>(lt.total_ns) / 1e6, static_cast<double>(lt.self_ns) / 1e6);
  }
  if (!path.empty()) {
    if (Tracer::write_tsv(spans, path)) {
      std::printf("trace: spans written to %s\n", path.c_str());
    } else {
      std::printf("trace: could not write %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench
