#include "probes.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

ProcSample ProcSample::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  s.vol_ctx = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.invol_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return s;
}

void ProcMeter::stop() {
  const ProcSample end = ProcSample::now();
  cpu_us += end.cpu_us - begin_.cpu_us;
  vol_ctx += end.vol_ctx - begin_.vol_ctx;
  invol_ctx += end.invol_ctx - begin_.invol_ctx;
  max_rss_mb = end.max_rss_mb;
}

void ProcMeter::report(Report& report, std::uint64_t ops) const {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  report.set("cpu_us_per_op", cpu_us / n, ops);
  report.set("proc.vol_ctx_switches_per_op", static_cast<double>(vol_ctx) / n, ops);
  report.set("proc.invol_ctx_switches_per_op", static_cast<double>(invol_ctx) / n, ops);
  report.set("peak_rss_mb", max_rss_mb, 1);
}

namespace {

unsigned read_os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return static_cast<unsigned>(std::stoul(line.substr(8)));
  }
  return 0;
}

}  // namespace

unsigned os_threads(unsigned expected) {
  unsigned n = read_os_threads();
  for (int i = 0; i < 100 && n > expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = std::min(n, read_os_threads());
  }
  return n;
}

unsigned hw_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void check_thread_budget(unsigned threads, bool idle_controller, unsigned connections,
                         Outcome& outcome) {
  const unsigned busy = idle_controller && threads > 0 ? threads - 1 : threads;
  const unsigned limit = hw_threads();
  if (threads == 0 || busy > limit || connections > limit) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "thread budget: %u working threads (%u OS threads) and %u connections "
                  "against %u hardware threads",
                  busy, threads, connections, limit);
    outcome.fail(why);
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per round.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- CalmGate -------------------------------------------------------------------

namespace {

// Lowest CPU-time / wall-time ratio over one spinning thread per hardware
// thread (the caller is one of them).
double spin_probe() {
  constexpr std::uint64_t kSpinNs = 30'000'000;
  const unsigned n = hw_threads();
  std::vector<double> ratio(n, 0.0);
  auto spin = [&ratio](unsigned i) {
    const std::uint64_t w0 = now_ns();
    const std::uint64_t c0 = thread_cpu_ns();
    std::uint64_t w = w0;
    while (w - w0 < kSpinNs) w = now_ns();
    ratio[i] = static_cast<double>(thread_cpu_ns() - c0) / static_cast<double>(w - w0);
  };
  std::vector<std::thread> threads;
  for (unsigned i = 1; i < n; ++i) threads.emplace_back(spin, i);
  spin(0);
  for (std::thread& t : threads) t.join();
  return *std::min_element(ratio.begin(), ratio.end());
}

}  // namespace

void CalmGate::wait() {
  constexpr double kCalmRatio = 0.95;
  constexpr unsigned kCalmProbes = 3;
  ++rounds_;
  const std::uint64_t t0 = now_ns();
  unsigned calm = 0;
  bool delayed = false;
  while (calm < kCalmProbes) {
    if (spin_probe() >= kCalmRatio) {
      ++calm;
      continue;
    }
    calm = 0;
    if (waited_ns_ + (now_ns() - t0) >= budget_ns_) {
      ++ungated_;
      break;
    }
    delayed = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  waited_ns_ += now_ns() - t0;
  delayed_ += delayed ? 1 : 0;
}

void CalmGate::print() const {
  std::printf("host: waited %.3f s for a calm host before %u of %u rounds (budget %.0f s)%s\n",
              static_cast<double>(waited_ns_) / 1e9, delayed_, rounds_,
              static_cast<double>(budget_ns_) / 1e9,
              ungated_ > 0 ? "; budget spent, some rounds ran on a contended host" : "");
}

// ---- TimedLink ----------------------------------------------------------------

bool TimedLink::send(vrep::repl::FrameKind kind, std::uint64_t epoch, const void* payload,
                     std::size_t len) {
  frames_ += 1;
  wire_bytes_ += len + kFrameHeaderBytes;
  if (tracer_ == nullptr) return inner_.send(kind, epoch, payload, len);
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_.send(kind, epoch, payload, len);
  const std::uint64_t t1 = now_ns();
  send_ns_ += t1 - t0;
  send_samples_.add(t1 - t0);
  tracer_->record("repl.link_send", parent_, frames_, t0, t1);
  return ok;
}

std::optional<vrep::repl::Frame> TimedLink::recv(int timeout_ms) {
  if (tracer_ == nullptr) return inner_.recv(timeout_ms);
  const std::uint64_t t0 = now_ns();
  auto frame = inner_.recv(timeout_ms);
  const std::uint64_t t1 = now_ns();
  recv_ns_ += t1 - t0;
  if (timeout_ms != 0) tracer_->record("repl.ack_recv", parent_, frames_, t0, t1);
  return frame;
}

// ---- TimedTransport -------------------------------------------------------------

bool TimedTransport::send(vrep::net::MsgType type, std::uint64_t epoch, const void* payload,
                          std::size_t len) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  wire_bytes_.fetch_add(len + kFrameHeaderBytes, std::memory_order_relaxed);
  return inner_.send(type, epoch, payload, len);
}

std::optional<vrep::net::Message> TimedTransport::recv(int timeout_ms) {
  if (tracer_ == nullptr) return inner_.recv(timeout_ms);
  const std::uint64_t t0 = now_ns();
  auto msg = inner_.recv(timeout_ms);
  const std::uint64_t t1 = now_ns();
  recv_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  tracer_->record("backup.recv", parent_.load(std::memory_order_relaxed), 0, t0, t1);
  return msg;
}

}  // namespace perfbench
