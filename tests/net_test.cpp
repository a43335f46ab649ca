// The framing contract of both framed carriers (TCP and in-process), the
// TCP accept/connect deadlines, and wire replication over TCP.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "util/rng.hpp"

namespace vrep::net {
namespace {

// Two connected endpoints of one carrier: `tx` sends, `rx` receives.
struct TcpPair {
  TcpPair() {
    EXPECT_TRUE(rx.listen(0));
    std::thread connector([this] { tx_ok = tx.connect_to("127.0.0.1", rx.bound_port()); });
    EXPECT_TRUE(rx.accept_peer());
    connector.join();
    EXPECT_TRUE(tx_ok);
  }
  TcpTransport rx, tx;
  bool tx_ok = false;
};

struct InprocPair {
  InprocPair() { InprocTransport::pair(tx, rx); }
  InprocTransport rx, tx;
};

// The framing contract every framed carrier keeps. The receiving end is
// driven through repl::ReplicationLink, as the protocol engine drives it;
// the sending end also needs Transport's raw send_bytes() and close_peer().
template <typename Pair>
class CarrierContract : public ::testing::Test {
 protected:
  repl::ReplicationLink& rx() { return pair_.rx; }
  Transport& tx() { return pair_.tx; }

 private:
  Pair pair_;
};

struct CarrierName {
  template <typename Pair>
  static std::string GetName(int) {
    return std::is_same_v<Pair, TcpPair> ? "Tcp" : "Inproc";
  }
};
using Carriers = ::testing::Types<TcpPair, InprocPair>;
TYPED_TEST_SUITE(CarrierContract, Carriers, CarrierName);

TYPED_TEST(CarrierContract, RoundTripsFramedMessages) {
  const char payload[] = "hello backup";
  ASSERT_TRUE(this->tx().send(repl::FrameKind::kHeartbeat, /*epoch=*/7, payload, sizeof payload));
  auto frame = this->rx().recv(1000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, repl::FrameKind::kHeartbeat);
  EXPECT_EQ(frame->epoch, 7u);
  ASSERT_EQ(frame->payload.size(), sizeof payload);
  EXPECT_EQ(std::memcmp(frame->payload.data(), payload, sizeof payload), 0);
}

TYPED_TEST(CarrierContract, ManyMessagesArriveInOrder) {
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(this->tx().send(repl::FrameKind::kRedoBatch, 1, &i, 4));
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    auto frame = this->rx().recv(1000);
    ASSERT_TRUE(frame.has_value());
    std::uint32_t got;
    std::memcpy(&got, frame->payload.data(), 4);
    ASSERT_EQ(got, i);
  }
}

TYPED_TEST(CarrierContract, LargePayload) {
  std::vector<std::uint8_t> big(3u << 20);
  Rng rng(5);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u32());
  std::thread sender(
      [&] { this->tx().send(repl::FrameKind::kDbChunk, 1, big.data(), big.size()); });
  auto frame = this->rx().recv(5000);
  sender.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, big);
}

TYPED_TEST(CarrierContract, PayloadCorruptionIsSkippableInStream) {
  // A frame whose payload CRC fails must leave the stream aligned: the
  // receiver reports kCorrupt but stays connected and can read the next
  // frame.
  const char good[] = "intact";
  auto bad = encode_frame(repl::FrameKind::kRedoBatch, 1, good, sizeof good);
  bad.back() ^= 0x01;  // flip a payload bit; header CRC still matches
  ASSERT_TRUE(this->tx().send_bytes(bad.data(), bad.size()));
  ASSERT_TRUE(this->tx().send(repl::FrameKind::kHeartbeat, 1, good, sizeof good));

  auto first = this->rx().recv(1000);
  EXPECT_FALSE(first.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kCorrupt);
  EXPECT_TRUE(this->rx().connected());
  auto second = this->rx().recv(1000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind, repl::FrameKind::kHeartbeat);
}

TYPED_TEST(CarrierContract, HeaderCorruptionClosesTheStream) {
  // If the header CRC fails, the length field cannot be trusted and framing
  // is lost for good: the transport reports kCorrupt and disconnects.
  const char payload[] = "doomed";
  auto frame = encode_frame(repl::FrameKind::kRedoBatch, 1, payload, sizeof payload);
  frame[8] ^= 0x40;  // flip a bit in the length field
  ASSERT_TRUE(this->tx().send_bytes(frame.data(), frame.size()));
  auto got = this->rx().recv(1000);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kCorrupt);
  EXPECT_FALSE(this->rx().connected());
}

TYPED_TEST(CarrierContract, TornFrameReportsClosedNotGarbage) {
  // Kill the sender mid-frame: the receiver must report kClosed (torn
  // stream), never hand out a partial message.
  std::vector<std::uint8_t> payload(4096, 0xab);
  const auto frame =
      encode_frame(repl::FrameKind::kRedoBatch, 1, payload.data(), payload.size());
  ASSERT_TRUE(this->tx().send_bytes(frame.data(), frame.size() / 2));
  this->tx().close_peer();
  auto got = this->rx().recv(1000);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kClosed);
}

TYPED_TEST(CarrierContract, RecvTimesOutWhenSilent) {
  for (const int timeout_ms : {50, 0}) {
    auto frame = this->rx().recv(timeout_ms);
    EXPECT_FALSE(frame.has_value()) << "recv(" << timeout_ms << ")";
    EXPECT_EQ(this->rx().last_error(), repl::LinkError::kTimeout) << "recv(" << timeout_ms << ")";
    EXPECT_TRUE(this->rx().connected());
  }
}

TYPED_TEST(CarrierContract, ClosedPeerIsDetected) {
  this->tx().close_peer();
  auto frame = this->rx().recv(1000);
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kClosed);
}

TYPED_TEST(CarrierContract, FrameCutByTimeoutResumesOnNextRecv) {
  // kTimeout means the stream is aligned and nothing was lost: a frame cut
  // by the deadline, inside its header or its payload, is finished by the
  // next recv, and the frame behind it follows intact (not parsed from the
  // middle of the late one, which would read as a corrupt header and close
  // the stream).
  std::vector<std::uint8_t> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  const auto frame =
      encode_frame(repl::FrameKind::kRedoBatch, 5, payload.data(), payload.size());
  constexpr std::size_t kHeader = sizeof(FrameHeader);
  for (const std::size_t cut : {std::size_t{10}, kHeader, kHeader + 100}) {
    SCOPED_TRACE("cut after " + std::to_string(cut) + " bytes");
    ASSERT_TRUE(this->tx().send_bytes(frame.data(), cut));
    for (const int timeout_ms : {50, 0}) {
      EXPECT_FALSE(this->rx().recv(timeout_ms).has_value());
      EXPECT_EQ(this->rx().last_error(), repl::LinkError::kTimeout);
      EXPECT_TRUE(this->rx().connected());
    }
    ASSERT_TRUE(this->tx().send_bytes(frame.data() + cut, frame.size() - cut));
    const std::uint32_t beat = 9;
    ASSERT_TRUE(this->tx().send(repl::FrameKind::kHeartbeat, 5, &beat, sizeof beat));

    auto late = this->rx().recv(500);
    ASSERT_TRUE(late.has_value()) << "error " << static_cast<int>(this->rx().last_error());
    EXPECT_EQ(late->kind, repl::FrameKind::kRedoBatch);
    EXPECT_EQ(late->epoch, 5u);
    EXPECT_EQ(late->payload, payload);
    auto next = this->rx().recv(500);
    ASSERT_TRUE(next.has_value()) << "error " << static_cast<int>(this->rx().last_error());
    EXPECT_EQ(next->kind, repl::FrameKind::kHeartbeat);
    EXPECT_TRUE(this->rx().connected());
  }
}

// Sends `frame` one byte every `interval` from a background thread until
// stopped — a peer that is alive but trickling below any useful rate.
struct Trickler {
  Trickler(Transport& t, std::vector<std::uint8_t> frame, std::chrono::milliseconds interval)
      : transport(t), bytes(std::move(frame)) {
    thread = std::thread([this, interval] {
      for (std::size_t i = 0; i < bytes.size() && !stop.load(); ++i) {
        if (!transport.send_bytes(bytes.data() + i, 1)) return;
        std::this_thread::sleep_for(interval);
      }
    });
  }
  ~Trickler() {
    stop.store(true);
    thread.join();
  }
  Transport& transport;
  std::vector<std::uint8_t> bytes;
  std::atomic<bool> stop{false};
  std::thread thread;
};

TYPED_TEST(CarrierContract, TricklingHeaderCannotStallRecvPastItsDeadline) {
  // Regression: read_fully used to restart the full timeout on every poll()
  // that saw a byte, so a peer dribbling one byte per window kept recv()
  // blocked indefinitely. The deadline must cap the WHOLE receive.
  std::vector<std::uint8_t> payload(256, 0x5a);
  auto frame = encode_frame(repl::FrameKind::kRedoBatch, 1, payload.data(), payload.size());
  Trickler trickler(this->tx(), std::move(frame), std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  auto got = this->rx().recv(150);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kTimeout);
  // Pre-fix behavior would sit through ~280 polls x 20ms (several seconds);
  // the budget is 150ms, so even a loaded CI box stays well under a second.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1'000);
}

TYPED_TEST(CarrierContract, RecvDeadlineSpansHeaderAndPayload) {
  // The header arriving promptly must not grant the payload a fresh budget:
  // one deadline covers the whole frame.
  std::vector<std::uint8_t> payload(256, 0xc3);
  auto frame = encode_frame(repl::FrameKind::kRedoBatch, 1, payload.data(), payload.size());
  constexpr std::size_t kHeader = sizeof(FrameHeader);
  ASSERT_TRUE(this->tx().send_bytes(frame.data(), kHeader));  // header at once
  std::vector<std::uint8_t> rest(frame.begin() + kHeader, frame.end());
  Trickler trickler(this->tx(), std::move(rest), std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  auto got = this->rx().recv(150);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(this->rx().last_error(), repl::LinkError::kTimeout);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1'000);
}

TYPED_TEST(CarrierContract, SlowButSteadyPeerStillCompletesWithinDeadline) {
  // The overall deadline must not break a legitimate multi-read receive:
  // a frame delivered in a few chunks well inside the budget goes through.
  std::vector<std::uint8_t> payload(4096, 0x11);
  auto frame = encode_frame(repl::FrameKind::kRedoBatch, 1, payload.data(), payload.size());
  std::thread chunked([&] {
    const std::size_t half = frame.size() / 2;
    ASSERT_TRUE(this->tx().send_bytes(frame.data(), half));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(this->tx().send_bytes(frame.data() + half, frame.size() - half));
  });
  auto got = this->rx().recv(2'000);
  chunked.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), payload.size());
}

// ---- accept_peer / connect_to deadline semantics ---------------------------

// A no-op handler installed WITHOUT SA_RESTART, so pthread_kill genuinely
// interrupts blocking syscalls with EINTR instead of restarting them.
void install_interrupting_handler(int signo) {
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(signo, &sa, nullptr), 0);
}

TEST(Transport, SignalInterruptedAcceptStillAcceptsThePeer) {
  // Regression: accept_peer treated poll() < 0 as kTimeout, so an EINTR —
  // a profiler tick, a child reaping, any signal — made the accept "time
  // out" instantly. It must retry against its one absolute deadline and
  // accept the (deliberately late) peer.
  install_interrupting_handler(SIGUSR1);
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));
  const std::uint16_t port = server.bound_port();

  std::atomic<bool> stop{false};
  const pthread_t accepter = pthread_self();
  std::thread pepper([&] {
    // Shower the accepting thread with signals while it sits in poll().
    while (!stop.load()) {
      pthread_kill(accepter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  TcpTransport client;
  bool client_ok = false;
  std::thread connector([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    client_ok = client.connect_to("127.0.0.1", port);
  });

  const bool accepted = server.accept_peer(5'000);
  stop.store(true);
  pepper.join();
  connector.join();
  EXPECT_TRUE(accepted) << "EINTR misclassified as timeout or failure";
  EXPECT_TRUE(client_ok);
  EXPECT_EQ(server.last_error(), repl::LinkError::kNone);
}

TEST(Transport, SignalInterruptedAcceptStillHonorsItsDeadline) {
  // The EINTR retry must not restart the budget: with nobody connecting and
  // a steady signal stream, accept_peer still returns kTimeout close to its
  // deadline instead of looping forever (or bailing early).
  install_interrupting_handler(SIGUSR1);
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));
  std::atomic<bool> stop{false};
  const pthread_t accepter = pthread_self();
  std::thread pepper([&] {
    while (!stop.load()) {
      pthread_kill(accepter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool accepted = server.accept_peer(150);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  stop.store(true);
  pepper.join();
  EXPECT_FALSE(accepted);
  EXPECT_EQ(server.last_error(), repl::LinkError::kTimeout);
  EXPECT_GE(elapsed, 140) << "an EINTR must not be reported as a timeout early";
  EXPECT_LT(elapsed, 2'000) << "the retry must not restart the budget";
}

TEST(Transport, ConnectToNeverListeningPeerTimesOutOnSchedule) {
  // Regression: connect_to budgeted by attempt count (timeout_ms / 50 + 1),
  // not wall clock. Against a never-listening port it must give up close to
  // timeout_ms — neither instantly nor after an attempt-count-shaped
  // overshoot — and report kTimeout.
  std::uint16_t dead_port;
  {
    TcpTransport placeholder;  // grab an ephemeral port, then free it
    ASSERT_TRUE(placeholder.listen(0));
    dead_port = placeholder.bound_port();
  }
  TcpTransport client;
  const auto t0 = std::chrono::steady_clock::now();
  const bool connected = client.connect_to("127.0.0.1", dead_port, 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(connected);
  EXPECT_EQ(client.last_error(), repl::LinkError::kTimeout);
  EXPECT_GE(elapsed, 250) << "gave up before the budget was spent";
  EXPECT_LT(elapsed, 2'000) << "overshot a 300ms budget";
}

TEST(Transport, ConnectToUnresponsivePeerHonorsDeadline) {
  // Regression: connect_to used a blocking ::connect(), so a peer that
  // swallows the SYN (blackholed address, full accept queue) parked the
  // call in the kernel's SYN-retransmit schedule for minutes regardless of
  // timeout_ms. Simulate the blackhole locally: a listener that never calls
  // accept() with its backlog already full drops further SYNs on the floor,
  // leaving the client hanging mid-handshake.
  TcpTransport server;
  ASSERT_TRUE(server.listen(0));  // backlog 1, nobody ever accepts
  std::vector<std::unique_ptr<TcpTransport>> fillers;
  for (int i = 0; i < 4; ++i) {
    auto filler = std::make_unique<TcpTransport>();
    // Ignore the result: the early ones land in the accept queue, the rest
    // are the queue overflowing — both leave it saturated. Keep them alive
    // so their queue slots stay occupied.
    filler->connect_to("127.0.0.1", server.bound_port(), 250);
    fillers.push_back(std::move(filler));
  }
  TcpTransport client;
  const auto t0 = std::chrono::steady_clock::now();
  const bool connected = client.connect_to("127.0.0.1", server.bound_port(), 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(connected);
  EXPECT_EQ(client.last_error(), repl::LinkError::kTimeout);
  EXPECT_GE(elapsed, 250) << "gave up before the budget was spent";
  EXPECT_LT(elapsed, 5'000) << "a swallowed SYN must not hold connect_to past its budget";
}

TEST(TransportDeathTest, SendRefusesPayloadAboveFrameBound) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The u32 length field used to truncate silently — a >4 GiB payload (or
  // anything above the receive-side 64 MiB cap) would corrupt framing at the
  // receiver. The bound is CHECKed before any socket state, so no peer is
  // needed and the payload pointer is never dereferenced.
  TcpTransport transport;
  EXPECT_DEATH(transport.send(repl::FrameKind::kDbChunk, 1, nullptr, kMaxFramePayload + 1),
               "len <= kMaxFramePayload");
}

TEST(TransportDeathTest, EncodeFrameRefusesPayloadAboveFrameBound) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(encode_frame(repl::FrameKind::kDbChunk, 1, nullptr, kMaxFramePayload + 1),
               "len <= kMaxFramePayload");
}

TEST(WireRepl, BackupTracksPrimaryOverTcp) {
  TcpPair pair;
  core::StoreConfig config;
  config.db_size = 256 * 1024;

  rio::Arena primary_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(primary_arena, config, &pair.tx, /*format=*/true);
  // 2-safe: every commit waits for the backup's ack, so the abrupt close
  // below cannot strand in-flight redo. 1-safe is *documented* to lose
  // trailing transactions on a primary crash — with it this test only passed
  // when the backup outran the primary (it does not under TSan slowdown).
  primary.set_two_safe(true);

  rio::Arena backup_arena = rio::Arena::create(config.db_size);
  WireBackup backup(backup_arena);
  std::thread backup_thread([&] {
    // Serve until the primary closes (test end) or goes silent.
    backup.serve(pair.rx, 2000);
  });

  ASSERT_TRUE(primary.sync_backup());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    primary.begin_transaction();
    const std::size_t off = rng.below(config.db_size - 64);
    primary.set_range(primary.db() + off, 32);
    const std::uint64_t v = rng.next_u64();
    primary.bus().write(primary.db() + off, &v, 8, sim::TrafficClass::kModified);
    primary.commit_transaction();
  }
  pair.tx.close_peer();  // "primary crashes"
  backup_thread.join();

  EXPECT_EQ(backup.applied_seq(), 200u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);

  // Promote and keep serving.
  sim::MemBus bus;
  rio::Arena new_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  auto promoted = backup.promote(bus, new_arena, config);
  EXPECT_EQ(std::memcmp(promoted->db(), primary.db(), config.db_size), 0);
  promoted->begin_transaction();
  promoted->set_range(promoted->db(), 8);
  const std::uint64_t v = 42;
  bus.write(promoted->db(), &v, 8, sim::TrafficClass::kModified);
  promoted->commit_transaction();
  EXPECT_TRUE(promoted->validate());
}

TEST(WireRepl, AbortedTransactionsNeverReachTheBackup) {
  TcpPair pair;
  core::StoreConfig config;
  config.db_size = 64 * 1024;
  rio::Arena primary_arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  WirePrimary primary(primary_arena, config, &pair.tx, true);
  rio::Arena backup_arena = rio::Arena::create(config.db_size);
  WireBackup backup(backup_arena);
  std::thread backup_thread([&] { backup.serve(pair.rx, 2000); });

  ASSERT_TRUE(primary.sync_backup());
  primary.begin_transaction();
  primary.set_range(primary.db(), 16);
  const std::uint64_t junk = ~0ull;
  primary.bus().write(primary.db(), &junk, 8, sim::TrafficClass::kModified);
  primary.abort_transaction();

  primary.begin_transaction();
  primary.set_range(primary.db() + 100, 16);
  const std::uint64_t v = 7;
  primary.bus().write(primary.db() + 100, &v, 8, sim::TrafficClass::kModified);
  primary.commit_transaction();

  pair.tx.close_peer();
  backup_thread.join();
  EXPECT_EQ(backup.applied_seq(), 1u);
  EXPECT_EQ(std::memcmp(backup.db(), primary.db(), config.db_size), 0);
}

}  // namespace
}  // namespace vrep::net
