// The wire frame of every framed byte stream (TCP, in-process loopback, the
// fault injector that perturbs encoded frames, and the AsyncServer's client
// connections). Every rule about the frame lives here, once.
//
// Frame format (24-byte header, then payload):
//   [u64 epoch | u32 payload_len | u32 payload_crc | u32 header_crc |
//    u8 type | u8 pad[3]] payload
// where `type` is the repl::FrameKind value.
//
// Every frame carries the sender's membership epoch so the protocol layer
// can fence stale-epoch traffic (split-brain defense; see
// cluster/membership.hpp). Two CRCs split corruption into recoverable and
// fatal classes:
//   * header_crc (over epoch, payload_len, type): if frame_header_ok() fails,
//     payload_len cannot be trusted and stream framing is lost — the reader
//     closes the connection (kCorrupt, then disconnected). Recovery is a
//     reconnect + rejoin.
//   * payload_crc: if frame_payload_ok() fails the frame was read in full,
//     so the stream stays aligned — the reader skips the frame and
//     resynchronises in-band (kCorrupt, still connected).
// No CRC covers `pad`. CRC verification also makes torn frames (killed
// sender) detectable, mirroring the simulated ring's checksummed commit
// markers.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "repl/link.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace vrep::net {

// Largest payload a framed transport carries. Enforced symmetrically: the
// receive side rejects any header claiming more (the length field cannot be
// trusted, framing is lost), and the send side CHECKs the bound before
// framing — the u32 length field must never silently truncate a larger
// payload into a frame the receiver will misparse.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

struct FrameHeader {
  std::uint64_t epoch;
  std::uint32_t len;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;  // over epoch, len, type
  std::uint8_t type;
  std::uint8_t pad[3];
};
static_assert(sizeof(FrameHeader) == 24);

inline std::uint32_t frame_header_crc(const FrameHeader& hdr) {
  Crc32 c;
  c.update(&hdr.epoch, sizeof hdr.epoch);
  c.update(&hdr.len, sizeof hdr.len);
  c.update(&hdr.type, sizeof hdr.type);
  return c.value();
}

// The header a sender puts in front of `payload`: CHECKs the payload bound,
// then sets both CRCs.
inline FrameHeader make_frame_header(repl::FrameKind kind, std::uint64_t epoch,
                                     const void* payload, std::size_t len) {
  VREP_CHECK(len <= kMaxFramePayload);
  FrameHeader hdr{};
  hdr.epoch = epoch;
  hdr.len = static_cast<std::uint32_t>(len);
  hdr.type = static_cast<std::uint8_t>(kind);
  hdr.payload_crc = Crc32::of(payload, len);
  hdr.header_crc = frame_header_crc(hdr);
  return hdr;
}

// False: the length field cannot be trusted and framing is lost for good.
inline bool frame_header_ok(const FrameHeader& hdr) {
  return frame_header_crc(hdr) == hdr.header_crc && hdr.len <= kMaxFramePayload;
}

// False: the hdr.len payload bytes were read in full but are damaged; the
// stream stays aligned and the frame is skipped.
inline bool frame_payload_ok(const FrameHeader& hdr, const void* payload) {
  return Crc32::of(payload, hdr.len) == hdr.payload_crc;
}

// Encode one frame exactly as a transport's send() puts it on the wire.
inline std::vector<std::uint8_t> encode_frame(repl::FrameKind kind, std::uint64_t epoch,
                                              const void* payload, std::size_t len) {
  const FrameHeader hdr = make_frame_header(kind, epoch, payload, len);
  std::vector<std::uint8_t> frame(sizeof hdr + len);
  std::memcpy(frame.data(), &hdr, sizeof hdr);
  if (len > 0) std::memcpy(frame.data() + sizeof hdr, payload, len);
  return frame;
}

}  // namespace vrep::net
