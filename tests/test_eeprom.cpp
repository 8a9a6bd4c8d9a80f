// Unit tests for the EEPROM model.
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/eeprom.hpp"

namespace mnp::storage {
namespace {

TEST(Eeprom, WriteThenReadRoundTrips) {
  Eeprom e(1024);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  EXPECT_TRUE(e.write(100, data));
  EXPECT_EQ(e.read(100, 5), data);
}

TEST(Eeprom, FreshBytesReadAsZero) {
  Eeprom e(64);
  const auto bytes = e.read(0, 64);
  ASSERT_EQ(bytes.size(), 64u);
  for (auto b : bytes) EXPECT_EQ(b, 0);
}

TEST(Eeprom, RangeChecksRejectOutOfBounds) {
  Eeprom e(32);
  EXPECT_FALSE(e.write(30, {1, 2, 3}));         // runs past the end
  EXPECT_FALSE(e.write(33, {1}));               // offset past the end
  EXPECT_TRUE(e.write(29, {1, 2, 3}));          // exactly fits
  EXPECT_TRUE(e.read(33, 1).empty());
  EXPECT_TRUE(e.read(0, 33).empty());
  EXPECT_EQ(e.read(0, 32).size(), 32u);
}

TEST(Eeprom, CountsOperations) {
  Eeprom e(256);
  e.write(0, {1, 2, 3});
  e.write(16, {4});
  (void)e.read(0, 3);  // only the counter matters here
  EXPECT_EQ(e.total_writes(), 2u);
  EXPECT_EQ(e.total_reads(), 1u);
  EXPECT_EQ(e.bytes_written(), 4u);
}

TEST(Eeprom, ChargesTheEnergyMeter) {
  energy::EnergyMeter meter;
  Eeprom e(256, &meter);
  e.write(0, std::vector<std::uint8_t>(22, 7));  // 2 lines
  (void)e.read(0, 22);                           // 2 lines
  EXPECT_EQ(meter.eeprom_writes(), 1u);
  EXPECT_EQ(meter.eeprom_reads(), 1u);
  EXPECT_DOUBLE_EQ(meter.total_nah(0), 2 * 83.333 + 2 * 1.111);
}

TEST(Eeprom, WriteOnceTrackingFlagsDoubleWrites) {
  Eeprom e(128);
  e.set_track_write_once(true);
  EXPECT_TRUE(e.write(0, {1, 2, 3, 4}));
  EXPECT_EQ(e.double_writes(), 0u);
  EXPECT_TRUE(e.write(4, {5, 6}));  // disjoint: fine
  EXPECT_EQ(e.double_writes(), 0u);
  EXPECT_TRUE(e.write(2, {9}));  // overlaps byte 2
  EXPECT_EQ(e.double_writes(), 1u);
}

TEST(Eeprom, EraseResetsContentAndWriteMarks) {
  Eeprom e(64);
  e.set_track_write_once(true);
  e.write(0, {1, 2, 3});
  e.erase();
  EXPECT_EQ(e.read(0, 3), (std::vector<std::uint8_t>{0, 0, 0}));
  EXPECT_EQ(e.resident_pages(), 0u);  // erase frees every page
  e.write(0, {7});  // not a double write after erase
  EXPECT_EQ(e.double_writes(), 0u);
}

TEST(Eeprom, DefaultCapacityIsMicaFlash) {
  Eeprom e;
  EXPECT_EQ(e.capacity(), 512u * 1024u);
}

// --- paging ----------------------------------------------------------------

constexpr std::size_t kPage = Eeprom::kPageBytes;

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i + 1);
  return bytes;
}

TEST(Eeprom, WriteStraddlingAPageBoundaryRoundTrips) {
  Eeprom e;
  const auto data = pattern(22);
  ASSERT_TRUE(e.write(kPage - 11, data));  // 11 bytes on each page
  EXPECT_EQ(e.read(kPage - 11, data.size()), data);
  std::vector<std::uint8_t> out{9, 9, 9};  // stale content is replaced
  e.read_into(kPage - 11, data.size(), out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(e.resident_pages(), 2u);
}

TEST(Eeprom, ReadAcrossWrittenAndUnwrittenPagesZeroFills) {
  Eeprom e;
  ASSERT_TRUE(e.write(kPage - 4, {1, 2, 3, 4}));
  EXPECT_EQ(e.read(kPage - 4, 8),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 0, 0, 0, 0}));
  EXPECT_EQ(e.resident_pages(), 1u);
}

TEST(Eeprom, ReadsNeverAllocatePages) {
  Eeprom e;
  const auto all = e.read(0, e.capacity());
  ASSERT_EQ(all.size(), e.capacity());
  EXPECT_TRUE(std::all_of(all.begin(), all.end(),
                          [](std::uint8_t b) { return b == 0; }));
  std::vector<std::uint8_t> out;
  e.read_into(3 * kPage - 5, 10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(10, 0));
  EXPECT_EQ(e.resident_pages(), 0u);
  EXPECT_EQ(e.total_reads(), 2u);
}

TEST(Eeprom, WriteOnceTrackingAcrossAPageBoundary) {
  Eeprom e;
  ASSERT_TRUE(e.write(kPage - 11, pattern(22)));  // marked though not armed
  e.set_track_write_once(true);
  EXPECT_TRUE(e.write(kPage + 10, {7, 8}));  // only byte kPage + 10 overlaps
  EXPECT_EQ(e.double_writes(), 1u);
  EXPECT_TRUE(e.write(kPage + 12, {5, 6}));  // disjoint, same page
  EXPECT_EQ(e.double_writes(), 1u);
  EXPECT_EQ(e.read(kPage + 10, 4), (std::vector<std::uint8_t>{7, 8, 5, 6}));
}

TEST(Eeprom, WriteMarksCoverEveryByteOfAMultiWordRun) {
  Eeprom e;
  e.set_track_write_once(true);
  ASSERT_TRUE(e.write(60, pattern(70)));  // bytes 60..129: a full mark word
  EXPECT_TRUE(e.write(130, {1}));
  EXPECT_TRUE(e.write(59, {1}));
  EXPECT_EQ(e.double_writes(), 0u);
  for (const std::size_t at : {60u, 64u, 127u, 128u, 129u}) {
    EXPECT_TRUE(e.write(at, {1}));
  }
  EXPECT_EQ(e.double_writes(), 5u);
}

TEST(Eeprom, CapacityOffAPageMultipleKeepsItsByteBound) {
  Eeprom e(kPage + 1);
  EXPECT_TRUE(e.write(kPage, {1}));
  EXPECT_FALSE(e.write(kPage, {1, 2}));
  EXPECT_TRUE(e.read(kPage, 2).empty());
  EXPECT_EQ(e.read(kPage, 1), (std::vector<std::uint8_t>{1}));
}

}  // namespace
}  // namespace mnp::storage
