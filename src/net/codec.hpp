// Wire codec: byte-level encoding of every packet type.
//
// The simulator passes Packet values around directly (no marshalling on
// the hot path), but the on-air format is real: encode() produces the MAC
// frame a Mica-2 would transmit — header, typed payload, CRC — and
// decode() parses and validates it. Both walk each message's one field
// list (packet.hpp), and the airtime model's size is exact relative to
// the frame:
//   encode(p).size() == p.wire_bytes() - kPhysicalOnlyBytes + k,
// where k counts p's bitmap and byte-vector fields, whose size and length
// bytes wire_bytes() leaves out.
//
// decode() accepts only canonical frames: every frame it accepts
// re-encodes to the same bytes. Besides truncation, trailing bytes, an
// unknown type and a CRC mismatch, it rejects a header dest that differs
// from the payload's (broadcast for a message without one), a bitmap size
// above 128 or with bits set past it, and a bool byte other than 0 or 1.
//
// Frame layout (little-endian):
//   [dest u16][src u16][type u8][payload bytes][crc16]
// The 8-byte preamble + 2-byte sync of kFramingBytes exist on air but
// carry no information, so they are not part of the byte vector.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace mnp::net {

/// Information-carrying frame bytes (excludes preamble/sync).
inline constexpr std::size_t kPhysicalOnlyBytes = 8 + 2;  // preamble + sync

/// Serializes `pkt` into a transmittable frame.
std::vector<std::uint8_t> encode(const Packet& pkt);

/// Parses a frame; returns std::nullopt for any frame encode() does not
/// produce (see above). power_scale is link metadata, not wire content, so
/// the decoded packet always carries the default 1.0. Span-style: callers
/// holding pooled or borrowed buffers decode in place, no vector needed.
std::optional<Packet> decode(const std::uint8_t* frame, std::size_t length);

/// Thin overload for vector-holding callers.
inline std::optional<Packet> decode(const std::vector<std::uint8_t>& frame) {
  return decode(frame.data(), frame.size());
}

/// CRC-16-CCITT used by the frame trailer.
std::uint16_t crc16(const std::uint8_t* data, std::size_t length);

}  // namespace mnp::net
