// What the benchmark attaches to the system under test: process and thread
// counters, and decorators around the carrier objects it hands to the
// engine (a repl::ReplicationLink and a net::Transport). Decorators forward
// every call unchanged; when given a tracer they also time and count.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "net/transport.hpp"
#include "repl/link.hpp"
#include "stats.hpp"

namespace perfbench {

// ---- options shared by every workload ---------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span file of the traced run ("" = none)
  std::string inject;     // fault to inject: "backup_byte" or "read_value"
  double calm_budget_s = 25;  // longest this run may wait for a calm host
};

// Verdict and tallies of a run, filled by the workload.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string violation;  // first correctness violation seen

  void fail(const std::string& why) {
    if (correct) violation = why;
    correct = false;
  }
};

int run_shard_dc(const Options& options, Report& report, Outcome& outcome);
int run_smp_oe(const Options& options, Report& report, Outcome& outcome);
int run_client_kv(const Options& options, Report& report, Outcome& outcome);

// ---- process counters ---------------------------------------------------------

struct ProcSample {
  double cpu_us = 0;            // user + system time of the whole process
  std::uint64_t vol_ctx = 0;    // voluntary context switches
  std::uint64_t invol_ctx = 0;  // involuntary context switches
  double max_rss_mb = 0;

  static ProcSample now();
};

// Sums of process counters over the measured phases only (set-up and
// verification excluded), and the peak RSS as of the last measured phase.
struct ProcMeter {
  double cpu_us = 0;
  std::uint64_t vol_ctx = 0;
  std::uint64_t invol_ctx = 0;
  double max_rss_mb = 0;

  void start() { begin_ = ProcSample::now(); }
  void stop();
  // cpu_us_per_op, proc.*_per_op and peak_rss_mb.
  void report(Report& report, std::uint64_t ops) const;

 private:
  ProcSample begin_;
};

// OS threads of this process (/proc/self/status). A thread that was just
// joined can still be listed for a moment while the kernel tears it down, so
// a count above `expected` is read again for up to 100 ms and the lowest
// count wins; a thread that really runs stays counted.
unsigned os_threads(unsigned expected);
unsigned hw_threads();

// Thread CPU time of the calling thread.
std::uint64_t thread_cpu_ns();

// Fails the run when more threads do work than the host has hardware
// threads. `idle_controller` discounts the main thread when it only blocks
// in a join while the engine's own threads run.
void check_thread_budget(unsigned threads, bool idle_controller, unsigned connections,
                         Outcome& outcome);

// Holds a measured round back until the host runs every hardware thread
// this process asks for. On a virtual machine whose host is oversubscribed,
// CPU is stolen in episodes lasting a minute or more; a round measured then
// measures the other tenants. The probe spins one thread per hardware
// thread for 30 ms and compares each thread's CPU time with wall time; the
// host is calm when every ratio is at least 0.95 in three probes in a row.
// The probe runs between rounds, with no cluster alive, so the system under
// test cannot influence it. All waits of one run share `budget_s`; once it
// is spent, rounds go ahead and the run says so.
class CalmGate {
 public:
  explicit CalmGate(double budget_s) : budget_ns_(static_cast<std::uint64_t>(budget_s * 1e9)) {}
  void wait();
  // Charge `ns` spent re-measuring a round the host spoiled against the
  // same budget; false once the budget is spent.
  bool charge(std::uint64_t ns) {
    waited_ns_ += ns;
    return waited_ns_ < budget_ns_;
  }
  // "host: waited <s> s ..." summary line for the run's output (run.py
  // reads the seconds to keep a per-checkout budget of waiting).
  void print() const;

 private:
  std::uint64_t budget_ns_;
  std::uint64_t waited_ns_ = 0;
  unsigned rounds_ = 0;
  unsigned delayed_ = 0;
  unsigned ungated_ = 0;  // rounds started contended after the budget ran out
};

// ---- decorators -----------------------------------------------------------

// Wraps the primary's ReplicationLink. Counts frames and wire bytes (payload
// plus the 24-byte frame header); with a tracer, times each send and the
// time blocked in recv.
class TimedLink final : public vrep::repl::ReplicationLink {
 public:
  TimedLink(vrep::repl::ReplicationLink& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bool send(vrep::repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  std::optional<vrep::repl::Frame> recv(int timeout_ms) override;
  vrep::repl::LinkError last_error() const override { return inner_.last_error(); }
  bool connected() const override { return inner_.connected(); }
  void flush() override { inner_.flush(); }
  std::optional<std::uint64_t> blocked_wait_ns() const override {
    return inner_.blocked_wait_ns();
  }

  // Span the send / ack-wait spans nest under (0 = none).
  void set_parent(std::uint64_t span) { parent_ = span; }
  // Zero the counters (after set-up traffic such as the image sync).
  void reset() {
    frames_ = wire_bytes_ = send_ns_ = recv_ns_ = 0;
    send_samples_ = Samples();
  }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  std::uint64_t send_ns() const { return send_ns_; }
  std::uint64_t recv_ns() const { return recv_ns_; }
  Samples& send_samples() { return send_samples_; }

 private:
  vrep::repl::ReplicationLink& inner_;
  Tracer* tracer_;
  std::uint64_t parent_ = 0;
  // Single caller (the sequencer) while the executor runs; read quiesced.
  std::uint64_t frames_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t send_ns_ = 0;
  std::uint64_t recv_ns_ = 0;
  Samples send_samples_;
};

// Wraps one endpoint of a net::Transport. Counts frames and bytes sent;
// with a tracer, also accumulates the time its caller spends blocked in
// recv (read live from another thread, hence atomics).
class TimedTransport final : public vrep::net::Transport {
 public:
  TimedTransport(vrep::net::Transport& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  bool send(vrep::net::MsgType type, std::uint64_t epoch, const void* payload,
            std::size_t len) override;
  std::optional<vrep::net::Message> recv(int timeout_ms) override;
  vrep::net::TransportError last_error() const override { return inner_.last_error(); }
  bool connected() const override { return inner_.connected(); }
  void close_peer() override { inner_.close_peer(); }
  bool send_bytes(const void* bytes, std::size_t len) override {
    return inner_.send_bytes(bytes, len);
  }

  // Span the recv spans nest under (0 = none); set before the caller runs.
  void set_parent(std::uint64_t span) { parent_.store(span, std::memory_order_relaxed); }
  std::uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }
  std::uint64_t wire_bytes() const { return wire_bytes_.load(std::memory_order_relaxed); }
  std::uint64_t recv_ns() const { return recv_ns_.load(std::memory_order_relaxed); }

 private:
  vrep::net::Transport& inner_;
  Tracer* tracer_;
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> recv_ns_{0};
};

// Frame header bytes every carrier adds to a payload (net/frame.hpp).
inline constexpr std::uint64_t kFrameHeaderBytes = 24;

// Seed of one round / ladder step, derived from the run's seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
