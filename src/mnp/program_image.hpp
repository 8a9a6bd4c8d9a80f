// Program image: the code being disseminated, and where its bytes live.
//
// MNP divides a program into segments of a fixed number of packets
// (at most 128, so a segment's missing-packet bitmap fits in one radio
// packet) and packets of a fixed payload size. Segment IDs are 1-based
// and strictly increasing; nodes must receive segments sequentially.
// Deluge pages and NCast generations are the same "unit of k packets";
// ImageLayout is the one place that arithmetic lives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mnp::core {

/// Geometry of a program: `bytes()` bytes cut into units (MNP segments,
/// Deluge pages, NCast generations) of `packets_per_unit()` packets of
/// `payload_bytes()` bytes each. Unit ids are 1-based; the last unit and
/// the last packet may be short. Packet (unit, pkt) sits at offset(unit,
/// pkt) of the image and of every receiver's EEPROM. MOAP and XNP stream
/// one flat packet sequence; its packet p sits at offset(p).
///
/// The members run on per-packet paths, so they are defined here.
class ImageLayout {
 public:
  /// No program known yet: no units, no bytes.
  ImageLayout() = default;

  /// `units` is stored as given: a count learned from the wire stays the
  /// count the sender advertised.
  ImageLayout(std::uint32_t bytes, std::uint16_t packets_per_unit,
              std::size_t payload_bytes, std::uint16_t units)
      : bytes_(bytes),
        packets_per_unit_(packets_per_unit),
        units_(units),
        payload_bytes_(payload_bytes) {}

  /// Derives the unit count, ⌈bytes / (packets_per_unit × payload_bytes)⌉
  /// (0 for an empty program), as a rebooted node does from its journal.
  static ImageLayout of_bytes(std::uint32_t bytes,
                              std::uint16_t packets_per_unit,
                              std::size_t payload_bytes) {
    const std::size_t unit_bytes =
        static_cast<std::size_t>(packets_per_unit) * payload_bytes;
    return ImageLayout(
        bytes, packets_per_unit, payload_bytes,
        static_cast<std::uint16_t>((bytes + unit_bytes - 1) / unit_bytes));
  }

  std::uint32_t bytes() const { return bytes_; }
  std::uint16_t packets_per_unit() const { return packets_per_unit_; }
  std::size_t payload_bytes() const { return payload_bytes_; }
  /// Number of units (ids run 1..units()); 0 while the program is unknown.
  std::uint16_t units() const { return units_; }

  /// Packets in the whole image, ⌈bytes / payload_bytes⌉.
  std::uint32_t total_packets() const {
    return static_cast<std::uint32_t>((bytes_ + payload_bytes_ - 1) /
                                      payload_bytes_);
  }

  /// Packets in unit `unit` (the last unit may be short; 0 outside
  /// 1..units()).
  std::uint16_t packets_in(std::uint16_t unit) const {
    if (unit == 0 || unit > units_) return 0;
    if (unit < units_) return packets_per_unit_;
    const std::size_t unit_bytes =
        static_cast<std::size_t>(packets_per_unit_) * payload_bytes_;
    const std::size_t last_bytes =
        bytes_ - unit_bytes * static_cast<std::size_t>(units_ - 1);
    return static_cast<std::uint16_t>((last_bytes + payload_bytes_ - 1) /
                                      payload_bytes_);
  }

  /// Byte offset of flat packet `pkt`.
  std::size_t offset(std::size_t pkt) const { return pkt * payload_bytes_; }
  /// Byte offset of packet `pkt` of unit `unit`.
  std::size_t offset(std::uint16_t unit, std::uint16_t pkt) const {
    return offset(static_cast<std::size_t>(unit - 1) * packets_per_unit_ + pkt);
  }

  /// Bytes carried by flat packet `pkt`: payload_bytes(), less for the
  /// final packet, 0 past the end of the image.
  std::size_t payload_len(std::size_t pkt) const {
    return len_at(offset(pkt));
  }
  /// Bytes carried by packet `pkt` of unit `unit`.
  std::size_t payload_len(std::uint16_t unit, std::uint16_t pkt) const {
    return len_at(offset(unit, pkt));
  }

 private:
  std::size_t len_at(std::size_t at) const {
    if (at >= bytes_) return 0;
    return std::min(payload_bytes_, bytes_ - at);
  }

  std::uint32_t bytes_ = 0;
  std::uint16_t packets_per_unit_ = 0;
  std::uint16_t units_ = 0;
  std::size_t payload_bytes_ = 0;
};

class ProgramImage {
 public:
  static constexpr std::uint16_t kMaxPacketsPerSegment = 128;

  /// Builds an image of `total_bytes` of deterministic pseudo-random
  /// content derived from `program_id` — receivers can be byte-verified
  /// against an independently reconstructed oracle.
  ///
  /// `packets_per_segment` may exceed kMaxPacketsPerSegment only for the
  /// basic (non-pipelined) protocol, which tracks loss in EEPROM and ships
  /// missing information in 128-bit windows (paper section 3.3).
  ProgramImage(std::uint16_t program_id, std::size_t total_bytes,
               std::uint16_t packets_per_segment = kMaxPacketsPerSegment,
               std::size_t payload_bytes = 22);

  std::uint16_t id() const { return id_; }
  std::size_t total_bytes() const { return data_.size(); }
  std::size_t payload_bytes() const { return layout_.payload_bytes(); }
  std::uint16_t packets_per_segment() const {
    return layout_.packets_per_unit();
  }

  /// Number of segments (1-based ids run 1..num_segments()). An empty
  /// image still has one (empty) segment.
  std::uint16_t num_segments() const { return layout_.units(); }

  /// The image's geometry: segments, packets and their offsets.
  const ImageLayout& layout() const { return layout_; }

  /// Payload carried by packet `pkt` of segment `seg` (the final packet
  /// may be short).
  std::vector<std::uint8_t> packet_payload(std::uint16_t seg, std::uint16_t pkt) const;

  /// Allocation-free variant: fills `out` (typically a pooled buffer whose
  /// capacity is being recycled) with the payload of (seg, pkt).
  void packet_payload_into(std::uint16_t seg, std::uint16_t pkt,
                           std::vector<std::uint8_t>& out) const;

  const std::vector<std::uint8_t>& bytes() const { return data_; }

  /// True if `candidate` equals this image (the paper's "accuracy"
  /// requirement: the received image must be exact).
  bool matches(const std::vector<std::uint8_t>& candidate) const {
    return candidate == data_;
  }

 private:
  std::uint16_t id_;
  ImageLayout layout_;
  std::vector<std::uint8_t> data_;
};

}  // namespace mnp::core
