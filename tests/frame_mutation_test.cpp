// Seeded mutation tests of the frame decoder (net/frame.hpp) through
// StreamTransport::recv: every mutation of frame_mutation.hpp is fed to an
// InprocTransport pair, which must do what the mutation's Expect says. The
// AsyncServer's parse loop gets the same mutations over raw TCP in
// async_server_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "frame_mutation.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace vrep::net {
namespace {

using namespace mutation;

constexpr int kStreamCases = 20000;
constexpr int kRecvMs = 2000;
constexpr std::size_t kMaxTestPayload = 256;

Frame random_frame(std::uint8_t tag, Rng& rng) {
  std::vector<std::uint8_t> payload(rng.below(kMaxTestPayload + 1));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
  return make_frame(static_cast<repl::FrameKind>(1 + rng.below(18)), tag, rng, std::move(payload));
}

void run_stream_case(std::uint64_t seed) {
  Rng rng(seed);
  InprocTransport tx, rx;
  InprocTransport::pair(tx, rx);
  const Frame f = random_frame(1, rng);
  const Frame other = random_frame(2, rng);
  const Frame next = random_frame(3, rng);
  const Frame last = random_frame(4, rng);
  const Mutated m = mutate(f, other, rng);
  ASSERT_TRUE(tx.send_bytes(m.bytes.data(), m.bytes.size()));

  switch (m.expect) {
    case Expect::kIntact: {
      ASSERT_TRUE(tx.send_bytes(next.bytes.data(), next.bytes.size()));
      const std::optional<repl::Frame> got = rx.recv(kRecvMs);
      ASSERT_TRUE(got.has_value()) << "a pad-only flip must decode";
      EXPECT_TRUE(same(*got, f));
      const std::optional<repl::Frame> after = rx.recv(kRecvMs);
      ASSERT_TRUE(after.has_value());
      EXPECT_TRUE(same(*after, next));
      return;
    }
    case Expect::kSkip: {
      ASSERT_TRUE(tx.send_bytes(next.bytes.data(), next.bytes.size()));
      EXPECT_FALSE(rx.recv(kRecvMs).has_value()) << "a damaged payload decoded as valid";
      EXPECT_EQ(rx.last_error(), repl::LinkError::kCorrupt);
      EXPECT_TRUE(rx.connected()) << "a payload CRC failure must leave the stream open";
      const std::optional<repl::Frame> after = rx.recv(kRecvMs);
      ASSERT_TRUE(after.has_value()) << "the frame after a skipped one must decode";
      EXPECT_TRUE(same(*after, next));
      return;
    }
    case Expect::kClose:
      ASSERT_TRUE(tx.send_bytes(next.bytes.data(), next.bytes.size()));
      EXPECT_FALSE(rx.recv(kRecvMs).has_value()) << "a damaged header decoded as valid";
      EXPECT_EQ(rx.last_error(), repl::LinkError::kCorrupt);
      EXPECT_FALSE(rx.connected()) << "a header CRC failure must close the stream";
      return;
    case Expect::kTorn:
      tx.close_peer();
      EXPECT_FALSE(rx.recv(kRecvMs).has_value()) << "a torn frame decoded as valid";
      EXPECT_EQ(rx.last_error(), repl::LinkError::kClosed);
      return;
    case Expect::kNoValid: {
      ASSERT_TRUE(tx.send_bytes(next.bytes.data(), next.bytes.size()));
      ASSERT_TRUE(tx.send_bytes(last.bytes.data(), last.bytes.size()));
      const bool f_whole = keeps(m, f);
      // Drain what is buffered; every recv consumes at least a header.
      for (;;) {
        const std::optional<repl::Frame> got = rx.recv(0);
        if (got.has_value()) {
          EXPECT_TRUE(same(*got, next) || same(*got, last) || (f_whole && same(*got, f)))
              << "a spliced frame decoded as valid";
        } else if (rx.last_error() != repl::LinkError::kCorrupt || !rx.connected()) {
          return;
        }
      }
    }
  }
}

TEST(FrameMutation, StreamTransportRejectsEveryMutatedFrame) {
  for (int i = 0; i < kStreamCases; ++i) {
    const std::uint64_t seed = kSeedBase + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(seed_note(seed));
    run_stream_case(seed);
    if (HasFailure()) return;  // the first failing seed is the one to replay
  }
}

}  // namespace
}  // namespace vrep::net
