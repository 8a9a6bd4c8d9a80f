// Unit tests for ImageLayout arithmetic and ProgramImage segmentation and
// payload extraction.
#include <gtest/gtest.h>

#include "mnp/program_image.hpp"

namespace mnp::core {
namespace {

TEST(ProgramImage, DeterministicContentPerId) {
  ProgramImage a(7, 1000), b(7, 1000), c(8, 1000);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_NE(a.bytes(), c.bytes());
}

TEST(ProgramImage, SegmentationArithmetic) {
  // 5 full segments of 128 packets x 22 bytes.
  ProgramImage img(1, 5 * 128 * 22, 128, 22);
  EXPECT_EQ(img.num_segments(), 5);
  for (std::uint16_t s = 1; s <= 5; ++s) {
    EXPECT_EQ(img.layout().packets_in(s), 128);
  }
  EXPECT_EQ(img.layout().packets_in(0), 0);
  EXPECT_EQ(img.layout().packets_in(6), 0);
}

TEST(ProgramImage, ShortLastSegment) {
  // One full segment plus 10 packets and a 5-byte tail.
  const std::size_t bytes = 128 * 22 + 10 * 22 + 5;
  ProgramImage img(1, bytes, 128, 22);
  EXPECT_EQ(img.num_segments(), 2);
  EXPECT_EQ(img.layout().packets_in(1), 128);
  EXPECT_EQ(img.layout().packets_in(2), 11);  // 10 full + 1 short
  EXPECT_EQ(img.packet_payload(2, 10).size(), 5u);
}

TEST(ProgramImage, PacketPayloadsTileTheImage) {
  ProgramImage img(3, 2 * 16 * 8 + 3, 16, 8);
  std::vector<std::uint8_t> reassembled;
  for (std::uint16_t s = 1; s <= img.num_segments(); ++s) {
    for (std::uint16_t p = 0; p < img.layout().packets_in(s); ++p) {
      const auto payload = img.packet_payload(s, p);
      reassembled.insert(reassembled.end(), payload.begin(), payload.end());
    }
  }
  EXPECT_TRUE(img.matches(reassembled));
}

TEST(ProgramImage, PacketOffsets) {
  ProgramImage img(1, 1000, 16, 8);
  EXPECT_EQ(img.layout().offset(1, 0), 0u);
  EXPECT_EQ(img.layout().offset(1, 3), 24u);
  EXPECT_EQ(img.layout().offset(2, 0), 128u);  // 16 packets * 8 bytes
}

TEST(ProgramImage, OutOfRangePayloadIsEmpty) {
  ProgramImage img(1, 100, 16, 8);
  EXPECT_TRUE(img.packet_payload(99, 0).empty());
}

TEST(ProgramImage, LargeSegmentsAllowedForBasicProtocol) {
  // The basic (non-pipelined) protocol may exceed 128 packets per segment
  // (EEPROM-backed loss tracking, paper section 3.3).
  ProgramImage img(1, 200 * 22, 200, 22);
  EXPECT_EQ(img.packets_per_segment(), 200);
  EXPECT_EQ(img.num_segments(), 1);
  EXPECT_EQ(img.layout().packets_in(1), 200);
}

TEST(ProgramImage, MatchesIsExact) {
  ProgramImage img(2, 64, 16, 8);
  auto copy = img.bytes();
  EXPECT_TRUE(img.matches(copy));
  copy[10] ^= 1;
  EXPECT_FALSE(img.matches(copy));
  copy[10] ^= 1;
  copy.pop_back();
  EXPECT_FALSE(img.matches(copy));
}

TEST(ProgramImage, EmptyImageKeepsOneSegment) {
  ProgramImage img(1, 0, 16, 8);
  EXPECT_EQ(img.num_segments(), 1);
  EXPECT_EQ(img.layout().packets_in(1), 0);
  EXPECT_TRUE(img.packet_payload(1, 0).empty());
}

// 4-byte payloads, 4-packet units: 2 full units, then a 6-byte third
// unit of one full packet and one 2-byte packet.
TEST(ImageLayout, ShortLastUnitAndShortLastPacket) {
  const ImageLayout layout = ImageLayout::of_bytes(2 * 4 * 4 + 6, 4, 4);
  EXPECT_EQ(layout.units(), 3);
  EXPECT_EQ(layout.packets_in(0), 0);
  EXPECT_EQ(layout.packets_in(2), 4);
  EXPECT_EQ(layout.packets_in(3), 2);
  EXPECT_EQ(layout.packets_in(4), 0);
  EXPECT_EQ(layout.offset(3, 1), 36u);
  EXPECT_EQ(layout.payload_len(3, 0), 4u);
  EXPECT_EQ(layout.payload_len(3, 1), 2u);
  EXPECT_EQ(layout.payload_len(3, 2), 0u);
  EXPECT_EQ(layout.payload_len(9, 0), 0u);
}

TEST(ImageLayout, FlatPacketsMatchUnitAddressing) {
  const ImageLayout layout = ImageLayout::of_bytes(2 * 4 * 4 + 6, 4, 4);
  EXPECT_EQ(layout.total_packets(), 10u);
  for (std::uint16_t unit = 1; unit <= layout.units(); ++unit) {
    for (std::uint16_t pkt = 0; pkt < layout.packets_in(unit); ++pkt) {
      const std::size_t flat = (unit - 1u) * 4u + pkt;
      EXPECT_EQ(layout.offset(flat), layout.offset(unit, pkt));
      EXPECT_EQ(layout.payload_len(flat), layout.payload_len(unit, pkt));
    }
  }
  EXPECT_EQ(layout.payload_len(std::size_t{10}), 0u);
}

TEST(ImageLayout, LearnedUnitCountIsStoredAsGiven) {
  // A count learned from the wire is kept even where the byte count
  // derives another one.
  const ImageLayout learned(100, 16, 8, 5);
  EXPECT_EQ(learned.units(), 5);
  EXPECT_EQ(ImageLayout::of_bytes(100, 16, 8).units(), 1);
}

TEST(ImageLayout, UnknownAndEmptyProgramsHaveNoUnits) {
  EXPECT_EQ(ImageLayout{}.units(), 0);
  EXPECT_EQ(ImageLayout{}.packets_in(1), 0);
  // Journal recovery derives 0 units for an empty program; only
  // ProgramImage keeps one empty segment.
  EXPECT_EQ(ImageLayout::of_bytes(0, 16, 8).units(), 0);
}

class SegmentCountTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(SegmentCountTest, WholeSegmentsProduceExactCounts) {
  const std::uint16_t segments = GetParam();
  ProgramImage img(1, static_cast<std::size_t>(segments) * 128 * 22, 128, 22);
  EXPECT_EQ(img.num_segments(), segments);
  EXPECT_EQ(img.total_bytes(), static_cast<std::size_t>(segments) * 2816);
}

INSTANTIATE_TEST_SUITE_P(Fig10Sizes, SegmentCountTest,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

}  // namespace
}  // namespace mnp::core
