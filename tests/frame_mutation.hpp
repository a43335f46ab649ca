// Seeded mutations of encoded frames (net/frame.hpp) for the decoder tests:
// bit flips, truncation, length fields that lie and splices of two frames,
// each tagged with what a correct reader must do with it.
//
// The oracle is the frame format itself: a flip in the header fields the
// header CRC covers closes the stream, a flip in the payload or its CRC
// skips the frame in place, a flip in `pad` (which no CRC covers) changes
// nothing. Whatever the mutation, no damaged frame is ever returned as a
// valid message.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace vrep::net::mutation {

// Every sweep runs case i from seed kSeedBase + i and stops at the first
// failing seed, so rerunning the test replays the failure.
constexpr std::uint64_t kSeedBase = 0x5eed0000u;

inline std::string seed_note(std::uint64_t seed) { return "seed " + std::to_string(seed); }

struct Frame {
  repl::FrameKind kind;
  std::uint64_t epoch;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> bytes;  // encoded
};

// `tag` becomes the epoch's low byte, so the frames of one case never share
// their first byte and a splice can never reproduce one of them.
inline Frame make_frame(repl::FrameKind kind, std::uint8_t tag, Rng& rng,
                        std::vector<std::uint8_t> payload) {
  const std::uint64_t epoch = (rng.next_u64() << 8) | tag;
  std::vector<std::uint8_t> bytes = encode_frame(kind, epoch, payload.data(), payload.size());
  return Frame{kind, epoch, std::move(payload), std::move(bytes)};
}

inline bool same(const repl::Frame& got, const Frame& frame) {
  return got.kind == frame.kind && got.epoch == frame.epoch && got.payload == frame.payload;
}

// What a correct reader must do with a mutated frame.
enum class Expect {
  kIntact,   // only pad changed: the original frame decodes
  kSkip,     // payload damaged: kCorrupt, still connected, the next frame decodes
  kClose,    // header damaged: kCorrupt and disconnected
  kTorn,     // the stream ends inside the frame: kClosed
  kNoValid,  // anything, except a damaged frame decoding as valid
};

struct Mutated {
  std::vector<std::uint8_t> bytes;
  Expect expect;
};

// Whether the mutation left `f` whole but for its pad, which no CRC covers
// (a pad flip, or a splice cut inside the pad of a frame without payload).
inline bool keeps(const Mutated& m, const Frame& f) {
  constexpr auto kPad = static_cast<std::ptrdiff_t>(offsetof(FrameHeader, pad));
  constexpr auto kHeader = static_cast<std::ptrdiff_t>(sizeof(FrameHeader));
  return m.bytes.size() >= f.bytes.size() &&
         std::equal(f.bytes.begin(), f.bytes.begin() + kPad, m.bytes.begin()) &&
         std::equal(f.bytes.begin() + kHeader, f.bytes.end(), m.bytes.begin() + kHeader);
}

// Flip 1-3 distinct bits. CRC32C detects every error of up to 5 bits in
// messages this short, so the class follows from where the flips landed.
inline Mutated flip_bits(const Frame& f, Rng& rng) {
  std::vector<std::uint8_t> bytes = f.bytes;
  std::vector<std::size_t> bits;
  const std::size_t n = 1 + rng.below(3);
  while (bits.size() < n) {
    const std::size_t bit = rng.below(bytes.size() * 8);
    if (std::find(bits.begin(), bits.end(), bit) == bits.end()) bits.push_back(bit);
  }
  Expect expect = Expect::kIntact;
  for (const std::size_t bit : bits) {
    const std::size_t byte = bit / 8;
    bytes[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const bool in_payload_crc = byte >= offsetof(FrameHeader, payload_crc) &&
                                byte < offsetof(FrameHeader, header_crc);
    if (byte >= sizeof(FrameHeader) || in_payload_crc) {
      if (expect == Expect::kIntact) expect = Expect::kSkip;
    } else if (byte < offsetof(FrameHeader, pad)) {
      expect = Expect::kClose;
    }
  }
  return Mutated{std::move(bytes), expect};
}

// Rewrite the length field and re-seal the header, so only the lie is left.
inline std::vector<std::uint8_t> with_len(const Frame& f, std::uint32_t len) {
  FrameHeader hdr;
  std::memcpy(&hdr, f.bytes.data(), sizeof hdr);
  hdr.len = len;
  hdr.header_crc = frame_header_crc(hdr);
  std::vector<std::uint8_t> bytes = f.bytes;
  std::memcpy(bytes.data(), &hdr, sizeof hdr);
  return bytes;
}

// One seeded mutation of `f`; `other` supplies the tail of a splice.
inline Mutated mutate(const Frame& f, const Frame& other, Rng& rng) {
  switch (rng.below(5)) {
    case 0:
      return flip_bits(f, rng);
    case 1: {  // truncation
      const std::size_t cut = 1 + rng.below(f.bytes.size() - 1);
      return Mutated{{f.bytes.begin(), f.bytes.begin() + static_cast<std::ptrdiff_t>(cut)},
                     Expect::kTorn};
    }
    case 2: {  // length beyond the frame bound
      const std::uint64_t over = kMaxFramePayload + 1 + rng.below(0xffffffffu - kMaxFramePayload);
      return Mutated{with_len(f, static_cast<std::uint32_t>(over)), Expect::kClose};
    }
    case 3: {  // length longer than the bytes that follow
      const std::uint64_t len = f.payload.size() + 1 + rng.below(4096);
      return Mutated{with_len(f, static_cast<std::uint32_t>(len)), Expect::kTorn};
    }
    default: {  // splice: a prefix of one frame, a suffix of another
      const std::size_t cut_a = 1 + rng.below(f.bytes.size() - 1);
      const std::size_t cut_b = 1 + rng.below(other.bytes.size() - 1);
      std::vector<std::uint8_t> bytes(f.bytes.begin(),
                                      f.bytes.begin() + static_cast<std::ptrdiff_t>(cut_a));
      bytes.insert(bytes.end(), other.bytes.begin() + static_cast<std::ptrdiff_t>(cut_b),
                   other.bytes.end());
      return Mutated{std::move(bytes), Expect::kNoValid};
    }
  }
}

}  // namespace vrep::net::mutation
