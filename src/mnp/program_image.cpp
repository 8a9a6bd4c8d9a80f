#include "mnp/program_image.hpp"

namespace mnp::core {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

ProgramImage::ProgramImage(std::uint16_t program_id, std::size_t total_bytes,
                           std::uint16_t packets_per_segment,
                           std::size_t payload_bytes)
    : id_(program_id) {
  data_.resize(total_bytes);
  for (std::size_t i = 0; i < total_bytes; ++i) {
    data_[i] = static_cast<std::uint8_t>(
        splitmix64((static_cast<std::uint64_t>(program_id) << 32) | i));
  }
  const ImageLayout derived = ImageLayout::of_bytes(
      static_cast<std::uint32_t>(total_bytes),
      packets_per_segment ? packets_per_segment : std::uint16_t{1},
      payload_bytes ? payload_bytes : 1);
  // Unlike a journal-derived layout, an empty image keeps one segment.
  layout_ = ImageLayout(derived.bytes(), derived.packets_per_unit(),
                        derived.payload_bytes(),
                        std::max<std::uint16_t>(derived.units(), 1));
}

std::vector<std::uint8_t> ProgramImage::packet_payload(std::uint16_t seg,
                                                       std::uint16_t pkt) const {
  std::vector<std::uint8_t> out;
  packet_payload_into(seg, pkt, out);
  return out;
}

void ProgramImage::packet_payload_into(std::uint16_t seg, std::uint16_t pkt,
                                       std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::size_t len = layout_.payload_len(seg, pkt);
  if (len == 0) return;
  const auto first =
      data_.begin() + static_cast<long>(layout_.offset(seg, pkt));
  out.insert(out.end(), first, first + static_cast<long>(len));
}

}  // namespace mnp::core
