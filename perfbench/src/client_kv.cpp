// Workload client_kv: net::AsyncServer over 2 shards, each a WirePrimary ->
// InprocTransport -> WireBackup, 2-safe with commit window 32 (composed as
// in bench/read_scaling). One generator thread (the main thread) drives 4
// pipelined non-blocking TCP connections in an OPEN loop: op groups arrive
// as a Poisson stream at a fixed offered rate, each an 8-byte commit
// followed, once its ticket is known, by three read-your-writes reads from
// the backup at min_seq = the ticket. Every op is timed from its due time
// (a read is due when its commit's reply arrives), so a stall is charged to
// every op it delays.
//
// A run first holds the reference rate (the latency metrics), then climbs a
// fixed ladder of offered rates, doubling from kClimbStart, until a step
// misses; each step runs on a freshly built cluster. A step is met when no
// op failed, commit p99 (timed from due times, so generator lateness counts)
// stays within kCommitP99LimitUs, and the backlog left after the last op
// was due drained within kDrainLimitUs (it did not grow). The limit is an
// SLO on capacity, loose enough that a steal episode on a shared host does
// not decide it; latency itself is gated by txn_p99_us. The highest step met
// gives max_rate_ops_s; its resolution is the ladder's factor of 2, chosen
// so that no step sits where capacity wanders on a 4-vCPU VM (70k-95k ops/s).
//
// Percentiles are exact within each of kWindows time slices of a step and
// reported as the median over the slices (see Windowed). A slice in which
// the generator itself ran more than kWindowLagBoundUs late at p99 timed
// the generator's stalls (a preempted virtual CPU), not the server, and is
// left out of the reported latencies while at least kMinValidWindows
// remain. When it is true of half the slices or more, the run is flagged
// invalid.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/async_server.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "net/wire_repl.hpp"
#include "probes.hpp"
#include "rio/arena.hpp"
#include "sim/traffic.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using vrep::repl::RedoApplier;
using vrep::repl::RedoPipeline;

constexpr unsigned kShards = 2;
constexpr unsigned kConns = 4;
constexpr std::size_t kDbSize = 1u << 20;
constexpr std::uint64_t kValueOff = 4096;        // client slots start past page 0
constexpr std::uint64_t kSlotsPerShard = 1u << 16;
constexpr unsigned kReadsPerCommit = 3;
constexpr unsigned kOpsPerGroup = 1 + kReadsPerCommit;
constexpr std::uint64_t kGroupIdBits = 40;  // value = salt << 40 | group + 1

// Offered rates in ops/s, commits and reads together.
constexpr double kReferenceRate = 16'000;
constexpr double kClimbStart = 32'000;
constexpr double kClimbMax = 1'024'000;
constexpr double kLowestRate = 1'000;
constexpr double kReferenceShare = 0.5;  // of the run's seconds
constexpr unsigned kClimbSteps = 4;      // steps the rest of the run is split into
constexpr unsigned kExtraSetups = 6;     // set-up only, for setup_s
constexpr double kCommitP99LimitUs = 20'000;
constexpr double kDrainLimitUs = 50'000;
constexpr double kWindowLagBoundUs = 500;  // generator p99 lateness per slice
constexpr double kWarmupShare = 0.1;      // of a step, excluded from latency
constexpr std::size_t kWindows = 16;  // ~1.1k commits each at the reference rate
constexpr unsigned kMinValidWindows = 3;
// A reference step with fewer slices on schedule ran on a host that kept
// preempting this process; it is measured again (same inputs), within the
// run's budget for waiting on the host, at most kReferenceAttempts times.
constexpr unsigned kSteadyWindows = 12;
constexpr unsigned kReferenceAttempts = 4;
constexpr std::uint64_t kDrainTimeoutNs = 2'000'000'000;

vrep::core::StoreConfig shard_config() {
  vrep::core::StoreConfig config;
  config.db_size = kDbSize;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  return config;
}

// ---- server side ------------------------------------------------------------------

// What the bound hooks record. Every ShardEndpoint hook runs on the server's
// epoll thread, so this state needs no lock; it is read after stop().
struct HookProbe {
  Tracer* tracer = nullptr;
  // Per op group, matched through the group id in the op bytes.
  std::vector<std::uint64_t> submit_ns, submit_end, acked_at;
  Samples submit, poll, read;
  std::uint64_t polls = 0, ticket_calls = 0, ticket_pending = 0, reads = 0, lagging = 0;
};

std::uint64_t group_of(std::uint64_t value) {
  return (value & ((std::uint64_t{1} << kGroupIdBits) - 1)) - 1;
}

std::uint64_t span_id(std::uint64_t group, unsigned k) {
  return (std::uint64_t{1} << 48) + group * 8 + k;  // 0 = group, 1 = commit, 2.. = reads
}

struct Shard {
  Shard(Tracer* tracer, HookProbe* probe, const Options& options)
      : arena(vrep::rio::Arena::create(vrep::core::required_arena_size(
            vrep::core::VersionKind::kV3InlineLog, shard_config()))),
        replica(vrep::rio::Arena::create(kDbSize)),
        primary_side(primary_end, tracer),
        backup_side(backup_end, tracer),
        probe_(probe),
        inject_read_(options.inject == "read_value") {
    vrep::net::InprocTransport::pair(primary_end, backup_end);
    primary = std::make_unique<vrep::net::WirePrimary>(
        arena, shard_config(), tracer != nullptr ? static_cast<vrep::net::Transport*>(&primary_side)
                                                 : &primary_end,
        /*format=*/true);
    primary->set_two_safe(true);
    primary->set_commit_window(32);
    backup = std::make_unique<vrep::net::WireBackup>(replica);
    vrep::net::Transport* serve_end =
        tracer != nullptr ? static_cast<vrep::net::Transport*>(&backup_side) : &backup_end;
    backup_thread = std::thread([this, serve_end] { backup->serve(*serve_end, 10'000); });
    synced = primary->sync_backup();
  }

  ~Shard() {
    primary_end.close_peer();
    backup_end.close_peer();
    backup_thread.join();
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // One client op: op bytes are u64 offset | u64 value, written as one V3
  // store transaction and committed asynchronously (the ticket is the seq).
  std::uint64_t submit(const std::uint8_t* op, std::size_t len) {
    if (len < 16) return 0;
    std::uint64_t off, value;
    std::memcpy(&off, op, 8);
    std::memcpy(&value, op + 8, 8);
    if (off + 8 > kDbSize) return 0;
    std::uint8_t* db = primary->db();
    primary->begin_transaction();
    primary->set_range(db + off, 8);
    primary->bus().write(db + off, &value, 8, vrep::sim::TrafficClass::kModified);
    primary->commit_transaction();
    return primary->committed_seq();
  }

  vrep::net::AsyncServer::ShardEndpoint endpoint() {
    vrep::net::AsyncServer::ShardEndpoint ep;
    if (probe_ == nullptr) {
      ep.submit = [this](std::uint64_t, const std::uint8_t* op, std::size_t len) {
        return submit(op, len);
      };
      ep.ticket_state = [this](std::uint64_t seq) {
        return primary->pipeline().ticket_state(RedoPipeline::CommitTicket{seq});
      };
      ep.poll = [this] { primary->pipeline().poll_acks(); };
    } else {
      ep.submit = [this](std::uint64_t, const std::uint8_t* op, std::size_t len) {
        const std::uint64_t t0 = now_ns();
        const std::uint64_t seq = submit(op, len);
        const std::uint64_t t1 = now_ns();
        probe_->submit.add(t1 - t0);
        std::uint64_t value = 0;
        if (len >= 16) std::memcpy(&value, op + 8, 8);
        const std::uint64_t g = group_of(value);
        if (g < probe_->submit_ns.size()) {
          probe_->submit_ns[g] = t1 - t0;
          probe_->submit_end[g] = t1;
          if (seq >= seq_group.size()) seq_group.resize(seq + 1024, ~std::uint64_t{0});
          seq_group[seq] = g;
          probe_->tracer->record("repl.submit", span_id(g, 1), g, t0, t1);
        }
        return seq;
      };
      ep.ticket_state = [this](std::uint64_t seq) {
        const RedoPipeline::TicketState state =
            primary->pipeline().ticket_state(RedoPipeline::CommitTicket{seq});
        probe_->ticket_calls += 1;
        if (state == RedoPipeline::TicketState::kPending) {
          probe_->ticket_pending += 1;
        } else if (seq < seq_group.size() && seq_group[seq] != ~std::uint64_t{0} &&
                   probe_->acked_at[seq_group[seq]] == 0) {
          // The first non-pending answer for this ticket.
          const std::uint64_t g = seq_group[seq];
          const std::uint64_t t = now_ns();
          probe_->acked_at[g] = t;
          probe_->tracer->record("net.ack_wait", span_id(g, 1), g, probe_->submit_end[g], t);
        }
        return state;
      };
      ep.poll = [this] {
        const std::uint64_t t0 = now_ns();
        primary->pipeline().poll_acks();
        probe_->poll.add(now_ns() - t0);
        probe_->polls += 1;
      };
    }
    ep.replicas.push_back(vrep::net::AsyncServer::Replica{
        [this](std::uint64_t off, std::uint32_t len, std::uint64_t min_seq, std::uint8_t* out) {
          const std::uint64_t t0 = probe_ != nullptr ? now_ns() : 0;
          const RedoApplier::ReadResult r = backup->read(off, len, min_seq, out);
          if (inject_read_ && r.status == RedoApplier::ReadStatus::kOk && len > 0 &&
              ++reads_served_ == 100) {
            out[0] ^= 0x01;  // fault injection: one wrong byte in one read
          }
          if (probe_ != nullptr) {
            const std::uint64_t t1 = now_ns();
            probe_->read.add(t1 - t0);
            probe_->reads += 1;
            probe_->lagging += r.status == RedoApplier::ReadStatus::kLagging ? 1 : 0;
            const std::uint64_t g =
                min_seq < seq_group.size() ? seq_group[min_seq] : ~std::uint64_t{0};
            probe_->tracer->record("backup.read", g != ~std::uint64_t{0} ? span_id(g, 0) : 0,
                                   g, t0, t1);
          }
          return r;
        },
        [this] { return primary->peer_acked_seq(0); }});
    return ep;
  }

  vrep::rio::Arena arena;
  vrep::rio::Arena replica;
  vrep::net::InprocTransport primary_end, backup_end;
  TimedTransport primary_side;  // frames the primary ships
  TimedTransport backup_side;   // serve thread's time blocked in recv
  std::unique_ptr<vrep::net::WirePrimary> primary;
  std::unique_ptr<vrep::net::WireBackup> backup;
  std::thread backup_thread;
  bool synced = false;
  std::vector<std::uint64_t> seq_group;  // ticket seq -> op group (epoll thread)

 private:
  HookProbe* probe_;
  bool inject_read_;
  std::uint64_t reads_served_ = 0;
};

// ---- client side --------------------------------------------------------------------

struct Group {
  std::uint64_t due = 0;  // ns after the step's start
  std::uint64_t key = 0;
  std::uint64_t off = 0;
  std::uint64_t value = 0;
  std::uint32_t conn = 0;
  // Filled while running.
  std::uint64_t sent = 0;
  std::uint64_t committed_at = 0;
  std::uint64_t ticket = 0;
  std::uint64_t read_sent[kReadsPerCommit] = {};
  unsigned reads_left = kReadsPerCommit;
  bool done = false;
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
};

void append_frame(std::vector<std::uint8_t>& out, vrep::net::MsgType type,
                  const std::uint8_t* payload, std::size_t len) {
  vrep::net::FrameHeader hdr{};
  hdr.epoch = 1;
  hdr.len = static_cast<std::uint32_t>(len);
  hdr.type = static_cast<std::uint8_t>(type);
  hdr.payload_crc = vrep::Crc32::of(payload, len);
  hdr.header_crc = vrep::net::frame_header_crc(hdr);
  const auto* h = reinterpret_cast<const std::uint8_t*>(&hdr);
  out.insert(out.end(), h, h + sizeof hdr);
  out.insert(out.end(), payload, payload + len);
}

bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct StepResult {
  double rate = 0;  // offered ops/s
  double setup_s = 0;
  double seconds = 0;        // first due to last completion
  std::uint64_t ops = 0;     // completed commits + reads
  std::uint64_t commits = 0;
  std::uint64_t failed = 0;  // rejected commits, bounced reads, never-completed ops
  std::uint64_t drain_ns = 0;
  Windowed commit_ns{kWindows}, read_ns{kWindows}, lag_ns{kWindows};
  Windowed commit_valid, read_valid;  // the slices the generator kept up in
  unsigned valid_windows = 0;
  bool passed = false;
  bool lag_ok = false;  // the generator kept up in more than half the slices
  // Traced steps only.
  HookProbe probe;
  Samples ack_wait, frontend;
  std::uint64_t reads_parked = 0, read_requests = 0;
  std::uint64_t frames = 0, wire_bytes = 0, backup_recv_ns = 0;
  double achieved() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
};

class Step {
 public:
  Step(double rate, double seconds, std::uint64_t seed, Tracer* tracer, const Options& options,
       CalmGate& gate, ProcMeter& proc, Outcome& outcome)
      : rate_(rate), seconds_(seconds), seed_(seed), tracer_(tracer), options_(options),
        gate_(gate), proc_(proc), outcome_(outcome) {}

  StepResult run();

 private:
  void send_commit(std::uint64_t g, std::uint64_t now);
  void send_read(std::uint64_t g, unsigned k, std::uint64_t now);
  bool on_frame(std::uint8_t type, const std::uint8_t* p, std::size_t len, std::uint64_t now);
  bool read_ready(Conn& c, std::uint64_t now);
  void violation(const std::string& why) { outcome_.fail("client_kv: " + why); }
  std::size_t window(const Group& grp) const {
    return static_cast<std::size_t>((grp.due - warm_until_) * kWindows /
                                    (step_ns_ - warm_until_ + 1));
  }

  double rate_;
  double seconds_;
  std::uint64_t seed_;
  Tracer* tracer_;
  const Options& options_;
  CalmGate& gate_;
  ProcMeter& proc_;
  Outcome& outcome_;
  StepResult r_;
  std::vector<Group> groups_;
  Conn conns_[kConns];
  std::uint64_t start_ = 0;
  std::uint64_t warm_until_ = 0;  // due times before this are warm-up
  std::uint64_t step_ns_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t last_done_ = 0;
  std::uint64_t wrong_reads_ = 0;
};

void Step::send_commit(std::uint64_t g, std::uint64_t now) {
  Group& grp = groups_[g];
  std::uint8_t payload[32];
  const std::uint64_t op_id = g * kOpsPerGroup + 1;
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &grp.key, 8);
  std::memcpy(payload + 16, &grp.off, 8);
  std::memcpy(payload + 24, &grp.value, 8);
  append_frame(conns_[grp.conn].out, vrep::net::MsgType::kClientCommit, payload, sizeof payload);
  grp.sent = now;
  if (grp.due >= warm_until_) r_.lag_ns.at(window(grp)).add(now - (start_ + grp.due));
}

void Step::send_read(std::uint64_t g, unsigned k, std::uint64_t now) {
  Group& grp = groups_[g];
  std::uint8_t payload[36];
  const std::uint64_t op_id = g * kOpsPerGroup + 2 + k;
  const std::uint32_t len = 8;
  std::memcpy(payload, &op_id, 8);
  std::memcpy(payload + 8, &grp.key, 8);
  std::memcpy(payload + 16, &grp.off, 8);
  std::memcpy(payload + 24, &len, 4);
  std::memcpy(payload + 28, &grp.ticket, 8);
  append_frame(conns_[grp.conn].out, vrep::net::MsgType::kReadRequest, payload, sizeof payload);
  grp.read_sent[k] = now;
}

bool Step::on_frame(std::uint8_t type, const std::uint8_t* p, std::size_t len,
                    std::uint64_t now) {
  if (len < 17) return false;
  std::uint64_t op_id;
  std::memcpy(&op_id, p, 8);
  const std::uint64_t g = (op_id - 1) / kOpsPerGroup;
  const unsigned kind = static_cast<unsigned>((op_id - 1) % kOpsPerGroup);  // 0 = commit
  if (op_id == 0 || g >= groups_.size()) return false;
  Group& grp = groups_[g];
  const bool measured = grp.due >= warm_until_;
  if (type == static_cast<std::uint8_t>(vrep::net::MsgType::kCommitReply) && kind == 0) {
    std::uint64_t ticket;
    std::memcpy(&ticket, p + 8, 8);
    const std::uint8_t result = p[16];
    if (result != static_cast<std::uint8_t>(RedoPipeline::TicketState::kDurable) ||
        ticket == 0) {
      r_.failed += 1 + kReadsPerCommit;  // the reads never get a ticket
      grp.done = true;
      ++done_;
      last_done_ = now;
      return true;
    }
    grp.ticket = ticket;
    grp.committed_at = now;
    r_.commits += 1;
    r_.ops += 1;
    if (measured) r_.commit_ns.at(window(grp)).add(now - (start_ + grp.due));
    if (tracer_ != nullptr) {
      tracer_->record_with_id(span_id(g, 1), "client.commit", span_id(g, 0), g,
                              start_ + grp.due, now);
    }
    for (unsigned k = 0; k < kReadsPerCommit; ++k) send_read(g, k, now);
    return true;
  }
  if (type != static_cast<std::uint8_t>(vrep::net::MsgType::kReadReply) || kind == 0) {
    return false;
  }
  const unsigned k = kind - 1;
  std::uint64_t at_seq;
  std::memcpy(&at_seq, p + 8, 8);
  const std::uint8_t status = p[16];
  if (status == static_cast<std::uint8_t>(RedoApplier::ReadStatus::kLagging)) {
    r_.failed += 1;  // a bounce is a failed attempt; ask again
    send_read(g, k, now);
    return true;
  }
  std::uint64_t got = 0;
  if (status != static_cast<std::uint8_t>(RedoApplier::ReadStatus::kOk) || len != 25) {
    violation("read status " + std::to_string(status) + " for group " + std::to_string(g));
  } else if (at_seq < grp.ticket) {
    violation("read at seq " + std::to_string(at_seq) + " below ticket " +
              std::to_string(grp.ticket));
  } else {
    std::memcpy(&got, p + 17, 8);
    if (got != grp.value) {
      ++wrong_reads_;
      violation("read returned bytes other than those written (group " + std::to_string(g) +
                ")");
    }
  }
  r_.ops += 1;
  if (measured) r_.read_ns.at(window(grp)).add(now - grp.committed_at);
  if (tracer_ != nullptr) {
    tracer_->record_with_id(span_id(g, 2 + k), "client.read", span_id(g, 0), g,
                            grp.committed_at, now);
  }
  if (--grp.reads_left == 0) {
    grp.done = true;
    ++done_;
    last_done_ = now;
    if (tracer_ != nullptr) {
      tracer_->record_with_id(span_id(g, 0), "client.op_group", 0, g, start_ + grp.due, now);
    }
  }
  return true;
}

bool Step::read_ready(Conn& c, std::uint64_t now) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // closed or broken
  }
  using vrep::net::FrameHeader;
  while (c.in.size() - c.in_off >= sizeof(FrameHeader)) {
    FrameHeader hdr;
    std::memcpy(&hdr, c.in.data() + c.in_off, sizeof hdr);
    if (vrep::net::frame_header_crc(hdr) != hdr.header_crc || hdr.len > 1024) return false;
    if (c.in.size() - c.in_off < sizeof hdr + hdr.len) break;
    const std::uint8_t* payload = c.in.data() + c.in_off + sizeof hdr;
    if (vrep::Crc32::of(payload, hdr.len) != hdr.payload_crc) return false;
    if (!on_frame(hdr.type, payload, hdr.len, now)) return false;
    c.in_off += sizeof hdr + hdr.len;
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  }
  return true;
}

StepResult Step::run() {
  if (seconds_ > 0) gate_.wait();
  r_.rate = rate_;
  const std::uint64_t t_setup = now_ns();
  // Inputs first: the Poisson arrival schedule, keys, slots and values.
  vrep::Rng rng(seed_);
  const double group_rate = rate_ / kOpsPerGroup;
  const auto n = static_cast<std::size_t>(std::ceil(group_rate * seconds_));
  groups_.resize(n);
  double t = 0;
  std::uint64_t next_slot[kShards] = {};
  for (std::size_t g = 0; g < n; ++g) {
    t += -std::log(1.0 - rng.next_double()) / group_rate;
    Group& grp = groups_[g];
    grp.due = static_cast<std::uint64_t>(t * 1e9);
    grp.key = rng.next_u64() >> 1;
    const unsigned shard = static_cast<unsigned>(grp.key % kShards);
    grp.off = kValueOff + (next_slot[shard]++ % kSlotsPerShard) * 8;
    grp.value = ((rng.next_u64() & 0xffffff) << kGroupIdBits) | (g + 1);
    grp.conn = static_cast<std::uint32_t>(g % kConns);
  }
  step_ns_ = static_cast<std::uint64_t>(seconds_ * 1e9);
  warm_until_ = static_cast<std::uint64_t>(seconds_ * kWarmupShare * 1e9);

  HookProbe* probe = nullptr;
  if (tracer_ != nullptr) {
    r_.probe.tracer = tracer_;
    r_.probe.submit_ns.assign(n, 0);
    r_.probe.submit_end.assign(n, 0);
    r_.probe.acked_at.assign(n, 0);
    probe = &r_.probe;
  }
  std::vector<std::unique_ptr<Shard>> shards;
  vrep::net::AsyncServer server;
  for (unsigned s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<Shard>(tracer_, probe, options_));
    if (!shards.back()->synced) violation("backup sync failed");
    server.add_shard(shards.back()->endpoint());
  }
  server.set_router([](std::uint64_t key) { return static_cast<std::uint32_t>(key % kShards); });
  if (!server.listen(0) || !server.start()) {
    violation("server did not start");
    return std::move(r_);
  }
  pollfd pfds[kConns];
  for (unsigned c = 0; c < kConns; ++c) {
    conns_[c].fd = connect_client(server.bound_port());
    if (conns_[c].fd < 0) {
      violation("connect failed");
      for (unsigned i = 0; i < c; ++i) ::close(conns_[i].fd);
      server.stop();
      return std::move(r_);
    }
  }
  // The server accepts on its own thread; wait until it has every client.
  const std::uint64_t accept_deadline = now_ns() + 2'000'000'000ull;
  while (server.stats().accepted.load() < kConns && now_ns() < accept_deadline) {
    std::this_thread::yield();
  }
  check_thread_budget(os_threads(hw_threads()), /*idle_controller=*/false,
                      static_cast<unsigned>(server.stats().accepted.load()), outcome_);
  r_.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  if (n == 0) {  // set-up only: one more setup_s sample
    for (Conn& c : conns_) ::close(c.fd);
    server.stop();
    return std::move(r_);
  }

  // Open loop: send every op group when due; reads go out as soon as the
  // commit's reply names the ticket.
  proc_.start();
  // Counters at the start: frames shipped during set-up (the image sync)
  // are not per-transaction work.
  std::uint64_t recv0[kShards], frames0[kShards], bytes0[kShards];
  for (unsigned s = 0; s < kShards; ++s) {
    recv0[s] = shards[s]->backup_side.recv_ns();
    frames0[s] = shards[s]->primary_side.frames();
    bytes0[s] = shards[s]->primary_side.wire_bytes();
  }
  start_ = now_ns();
  std::size_t next = 0;
  bool broken = false;
  const std::uint64_t last_due = n > 0 ? groups_[n - 1].due : 0;
  while (!broken && done_ < n) {
    std::uint64_t now = now_ns();
    if (now > start_ + last_due + kDrainTimeoutNs) break;  // ops never answered
    while (next < n && start_ + groups_[next].due <= now) send_commit(next++, now);
    for (unsigned c = 0; c < kConns; ++c) {
      broken = broken || !flush(conns_[c]);
      const short events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
      pfds[c] = pollfd{conns_[c].fd, events, 0};
    }
    now = now_ns();
    std::uint64_t wait_ns = 1'000'000;
    if (next < n) {
      const std::uint64_t due = start_ + groups_[next].due;
      wait_ns = due > now ? std::min<std::uint64_t>(due - now, wait_ns) : 0;
    }
    const timespec ts{0, static_cast<long>(wait_ns)};
    const int ready = ::ppoll(pfds, kConns, &ts, nullptr);
    if (ready < 0 && errno != EINTR) broken = true;
    if (ready <= 0) continue;
    now = now_ns();
    for (unsigned c = 0; c < kConns; ++c) {
      if (pfds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) broken = true;
      if ((pfds[c].revents & POLLIN) && !read_ready(conns_[c], now)) broken = true;
    }
  }
  const std::uint64_t end = done_ == n && n > 0 ? last_done_ : now_ns();
  proc_.stop();
  r_.seconds = static_cast<double>(end - start_) / 1e9;
  r_.drain_ns = end > start_ + last_due ? end - (start_ + last_due) : 0;
  if (broken) violation("a client connection broke");
  for (const Group& grp : groups_) {
    if (!grp.done) r_.failed += grp.committed_at == 0 ? kOpsPerGroup : grp.reads_left;
  }
  for (Conn& c : conns_) ::close(c.fd);
  r_.read_requests = server.stats().reads_served.load() + server.stats().reads_bounced.load();
  r_.reads_parked = server.stats().reads_parked.load();
  server.stop();

  // Verdict: every shard's backup caught up and byte-identical.
  for (unsigned s = 0; s < kShards; ++s) {
    Shard& shard = *shards[s];
    shard.primary->sync();
    const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
    while (shard.backup->watermark() < shard.primary->committed_seq() && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (shard.backup->watermark() != shard.primary->committed_seq()) {
      violation("shard " + std::to_string(s) + " backup behind the primary");
    }
    if (options_.inject == "backup_byte") shard.replica.data()[kValueOff + 8 * s] ^= 0x5a;
    if (vrep::Crc32::of(shard.primary->db(), kDbSize) !=
        vrep::Crc32::of(shard.replica.data(), kDbSize)) {
      violation("shard " + std::to_string(s) + " backup image CRC differs from the primary's");
    }
    if (tracer_ != nullptr) {
      r_.frames += shard.primary_side.frames() - frames0[s];
      r_.wire_bytes += shard.primary_side.wire_bytes() - bytes0[s];
      r_.backup_recv_ns += shard.backup_side.recv_ns() - recv0[s];
    }
  }
  outcome_.attempted += n * kOpsPerGroup + r_.failed;
  outcome_.failed += r_.failed;

  if (tracer_ != nullptr) {
    // Per op: ack wait from the submit hook's return to the first
    // non-pending ticket answer; front end = client-observed commit time
    // (send to reply) minus submit and ack wait.
    for (std::size_t g = 0; g < n; ++g) {
      const Group& grp = groups_[g];
      const HookProbe& hp = r_.probe;
      if (grp.due < warm_until_ || grp.committed_at == 0 || hp.acked_at[g] == 0) continue;
      const std::uint64_t ack = hp.acked_at[g] - hp.submit_end[g];
      r_.ack_wait.add(ack);
      const std::uint64_t client = grp.committed_at - grp.sent;
      r_.frontend.add(client > hp.submit_ns[g] + ack ? client - hp.submit_ns[g] - ack : 0);
    }
  }
  std::vector<bool> keep;
  for (const double lag : r_.lag_ns.per_window(0.99)) {
    keep.push_back(lag <= kWindowLagBoundUs * 1e3);
    r_.valid_windows += keep.back() ? 1 : 0;
  }
  r_.lag_ok = 2 * r_.valid_windows > keep.size();
  if (r_.valid_windows < kMinValidWindows) keep.assign(keep.size(), true);
  r_.commit_valid = r_.commit_ns.select(keep);
  r_.read_valid = r_.read_ns.select(keep);
  r_.passed = r_.failed == 0 && !r_.commit_ns.empty() &&
              r_.commit_ns.percentile(0.99) <= kCommitP99LimitUs * 1e3 &&
              static_cast<double>(r_.drain_ns) <= kDrainLimitUs * 1e3;
  std::printf("  step %6.0f ops/s: setup %.4f s, %.3f s, %llu ops (%.0f ops/s), "
              "commit p99 %.0f us, read p99 %.0f us, drain %.0f us, lag p99 %.0f us "
              "(%u of %zu slices on schedule), failed %llu -> %s%s\n",
              rate_, r_.setup_s, r_.seconds, static_cast<unsigned long long>(r_.ops),
              r_.achieved(), r_.commit_ns.percentile(0.99) / 1e3,
              r_.read_ns.percentile(0.99) / 1e3, static_cast<double>(r_.drain_ns) / 1e3,
              r_.lag_ns.percentile(0.99) / 1e3, r_.valid_windows, kWindows,
              static_cast<unsigned long long>(r_.failed), r_.passed ? "met" : "missed",
              tracer_ != nullptr ? " (traced)" : "");
  return std::move(r_);
}

}  // namespace

int run_client_kv(const Options& options, Report& report, Outcome& outcome) {
  // The generator sleeps to each op's due time; keep the kernel's timer
  // slack for this thread at 1 us so the wake-ups land on schedule.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const double ref_s = options.seconds * kReferenceShare;
  const double climb_s = (options.seconds - ref_s) / kClimbSteps;
  ProcMeter proc, ignored;
  CalmGate gate(options.calm_budget_s);

  if (options.trace) {
    // The reference rate twice: untraced, then traced, on the same inputs.
    Tracer tracer;
    const std::uint64_t seed = derive_seed(options.seed, 300);
    StepResult u =
        Step(kReferenceRate, ref_s, seed, nullptr, options, gate, ignored, outcome).run();
    StepResult t = Step(kReferenceRate, ref_s, seed, &tracer, options, gate, proc, outcome).run();
    gate.print();
    report_trace(tracer, options.trace_out);
    const double commits = t.commits > 0 ? static_cast<double>(t.commits) : 1.0;
    const double secs = t.seconds > 0 ? t.seconds : 1.0;
    report.set_latency("repl.submit", t.probe.submit);
    report.set_latency("repl.poll_acks", t.probe.poll, /*p99=*/false);
    report.set_latency("net.ack_wait", t.ack_wait);
    report.set_latency("net.frontend", t.frontend, /*p99=*/false);
    report.set("net.polls_per_s", static_cast<double>(t.probe.polls) / secs, t.probe.polls);
    report.set("net.ticket_pending_share",
               t.probe.ticket_calls > 0
                   ? static_cast<double>(t.probe.ticket_pending) / t.probe.ticket_calls
                   : 0,
               t.probe.ticket_calls);
    report.set("net.read_park_share",
               t.read_requests > 0 ? static_cast<double>(t.reads_parked) / t.read_requests : 0,
               t.read_requests);
    report.set("net.gen_lag_p99_us", t.lag_ns.percentile(0.99) / 1e3, t.lag_ns.count());
    report.set_latency("backup.read", t.probe.read);
    report.set("backup.read_lagging_share",
               t.probe.reads > 0 ? static_cast<double>(t.probe.lagging) / t.probe.reads : 0,
               t.probe.reads);
    report.set("backup.recv_idle_share",
               static_cast<double>(t.backup_recv_ns) / (secs * 1e9 * kShards), t.probe.reads);
    report.set("repl.frames_per_txn", static_cast<double>(t.frames) / commits, t.commits);
    report.set("repl.wire_bytes_per_txn", static_cast<double>(t.wire_bytes) / commits,
               t.commits);
    report.set_latency("client.read", u.read_valid);
    const double base = u.commit_valid.percentile(0.5);
    report.set("trace.overhead_pct",
               base > 0 ? (t.commit_valid.percentile(0.5) - base) / base * 100 : 0,
               t.commit_valid.count());
    proc.report(report, t.ops);
    if (!u.lag_ok || !t.lag_ok) {
      std::printf("validity: INVALID: the generator ran more than %.0f us late (p99) in half "
                  "the slices or more\n", kWindowLagBoundUs);
    }
    return 0;
  }

  std::vector<double> setup;
  std::uint64_t stream = 301;  // 300 is the reference step's
  auto step = [&](double rate, double seconds, ProcMeter& meter, std::uint64_t inputs = 0) {
    inputs = inputs != 0 ? inputs : stream++;
    StepResult r = Step(rate, seconds, derive_seed(options.seed, inputs), nullptr, options, gate,
                        meter, outcome)
                       .run();
    setup.push_back(r.setup_s);
    return r;
  };
  StepResult ref;
  for (unsigned attempt = 1;; ++attempt) {
    proc = ProcMeter();
    const std::uint64_t t0 = now_ns();
    ref = step(kReferenceRate, ref_s, proc, 300);  // every attempt, the same inputs
    if (ref.valid_windows >= kSteadyWindows || attempt == kReferenceAttempts ||
        !gate.charge(now_ns() - t0)) {
      break;
    }
    std::printf("  reference step: %u of %zu slices on schedule; measuring it again\n",
                ref.valid_windows, kWindows);
  }
  // A run whose generator could not keep to the reference schedule measured
  // the generator (or a starved host), not the server: flagged, not failed,
  // since every op was still checked.
  if (!ref.lag_ok) {
    std::printf("validity: INVALID: the generator ran more than %.0f us late (p99) in %zu of "
                "%zu slices\n",
                kWindowLagBoundUs, kWindows - ref.valid_windows, kWindows);
  }

  for (unsigned i = 0; i < kExtraSetups; ++i) step(kReferenceRate, 0, ignored);
  // Climb: double until a step misses.
  double met_rate = 0, met_ops_s = 0, met_txn_s = 0, missed_rate = 0;
  double low_rate = 0, low_ops_s = 0, low_txn_s = 0;  // the lowest rate tried
  auto note = [&](const StepResult& r) {
    const double txn_s = r.seconds > 0 ? static_cast<double>(r.commits) / r.seconds : 0;
    if (r.passed) {
      met_rate = r.rate;
      met_ops_s = r.achieved();
      met_txn_s = txn_s;
    } else {
      missed_rate = r.rate;
    }
    if (low_rate == 0 || r.rate < low_rate) {
      low_rate = r.rate;
      low_ops_s = r.achieved();
      low_txn_s = txn_s;
    }
  };
  note(ref);  // the reference rate is the ladder's first step
  for (double rate = kClimbStart; rate <= kClimbMax && missed_rate == 0; rate *= 2) {
    note(step(rate, climb_s, ignored));
  }
  // A reference rate missed: descend until a rate is met, so a slow system
  // reports how slow rather than nothing.
  for (double rate = kReferenceRate / 2; met_rate == 0 && rate >= kLowestRate; rate /= 2) {
    note(step(rate, climb_s, ignored));
  }
  if (met_rate == 0) {
    // Not even the lowest rate met the limit: report what that step achieved
    // as an upper bound rather than a zero.
    std::printf("validity: no offered rate met the latency limit; max_rate_ops_s is the "
                "lowest step's achieved rate, an upper bound\n");
    met_ops_s = low_ops_s;
    met_txn_s = low_txn_s;
  }

  gate.print();
  report.set("setup_s", median(setup), setup.size());
  report.set("txn_per_s", met_txn_s, 1);
  report.set("max_rate_ops_s", met_ops_s, 1);
  report.set_latency("txn", ref.commit_valid);
  proc.report(report, ref.ops);
  std::printf("client_kv: reference %.0f ops/s: commit p50 %.1f us p99 %.1f us (n=%zu), read p50 "
              "%.1f us p99 %.1f us (n=%zu); highest rate met %.0f ops/s, last missed %.0f\n",
              ref.rate, ref.commit_valid.percentile(0.5) / 1e3,
              ref.commit_valid.percentile(0.99) / 1e3, ref.commit_valid.count(),
              ref.read_valid.percentile(0.5) / 1e3,
              ref.read_valid.percentile(0.99) / 1e3, ref.read_valid.count(), met_rate, missed_rate);
  return 0;
}

}  // namespace perfbench
