// Unit tests for util::Bitmap (MNP's MissingVector / ForwardVector) and
// util::BigBitmap (the large-segment variant).
#include <gtest/gtest.h>

#include "util/bitmap.hpp"

namespace mnp::util {
namespace {

TEST(Bitmap, DefaultIsEmpty) {
  Bitmap b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(Bitmap, SizeClampsToMax) {
  Bitmap b(4096);
  EXPECT_EQ(b.size(), Bitmap::kMaxBits);
}

TEST(Bitmap, AllSetInitializesEveryBit) {
  Bitmap b = Bitmap::all_set(128);
  EXPECT_EQ(b.count(), 128u);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_TRUE(b.test(i)) << i;
}

TEST(Bitmap, AllSetPartialWidth) {
  Bitmap b = Bitmap::all_set(37);
  EXPECT_EQ(b.count(), 37u);
  EXPECT_FALSE(b.test(37));
  EXPECT_FALSE(b.test(127));
}

TEST(Bitmap, SetClearTest) {
  Bitmap b(16);
  b.set(3);
  b.set(15);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(15));
  EXPECT_FALSE(b.test(4));
  EXPECT_EQ(b.count(), 2u);
  b.clear(3);
  EXPECT_FALSE(b.test(3));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitmap, OutOfRangeOpsAreNoops) {
  Bitmap b(8);
  b.set(8);    // ignored
  b.set(200);  // ignored
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.test(8));
  EXPECT_FALSE(b.test(10000));
}

TEST(Bitmap, FindFirstSet) {
  Bitmap b(64);
  EXPECT_EQ(b.find_first_set(), 64u);
  b.set(10);
  b.set(40);
  EXPECT_EQ(b.find_first_set(), 10u);
  EXPECT_EQ(b.find_first_set(11), 40u);
  EXPECT_EQ(b.find_first_set(41), 64u);
}

TEST(Bitmap, UnionMergesForwardVectors) {
  // The sender's ForwardVector is the union of requesters' missing sets.
  Bitmap a(32), b(32);
  a.set(1);
  a.set(5);
  b.set(5);
  b.set(9);
  Bitmap merged = a | b;
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_TRUE(merged.test(1));
  EXPECT_TRUE(merged.test(5));
  EXPECT_TRUE(merged.test(9));
}

TEST(Bitmap, IntersectionAndEquality) {
  Bitmap a = Bitmap::all_set(16);
  Bitmap b(16);
  b.set(2);
  b.set(7);
  Bitmap both = a & b;
  EXPECT_EQ(both, b);
  EXPECT_FALSE(both == a);
}

TEST(Bitmap, RoundTripsThroughBytes) {
  Bitmap b(128);
  for (std::size_t i = 0; i < 128; i += 7) b.set(i);
  Bitmap restored = Bitmap::from_bytes(b.to_bytes(), 128);
  EXPECT_EQ(restored, b);
}

TEST(Bitmap, FromBytesMasksTrailingBits) {
  Bitmap full = Bitmap::all_set(128);
  Bitmap narrow = Bitmap::from_bytes(full.to_bytes(), 20);
  EXPECT_EQ(narrow.size(), 20u);
  EXPECT_EQ(narrow.count(), 20u);
  EXPECT_FALSE(narrow.test(20));
}

TEST(Bitmap, ToStringShowsBits) {
  Bitmap b(4);
  b.set(0);
  b.set(2);
  EXPECT_EQ(b.to_string(), "1010");
}

TEST(Bitmap, SixteenByteWirePayload) {
  // The paper restricts segments to 128 packets so the vector is 16 bytes.
  Bitmap b = Bitmap::all_set(128);
  EXPECT_EQ(b.byte_size(), 16u);
  EXPECT_EQ(Bitmap::kMaxBytes, 16u);
}

class BitmapWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitmapWidthTest, SetAllThenClearAllAtEveryWidth) {
  const std::size_t width = GetParam();
  Bitmap b(width);
  b.set_all();
  EXPECT_EQ(b.count(), width);
  EXPECT_EQ(b.find_first_set(), width ? 0u : width);
  b.clear_all();
  EXPECT_EQ(b.count(), 0u);
}

TEST_P(BitmapWidthTest, EachBitIsIndependent) {
  const std::size_t width = GetParam();
  for (std::size_t i = 0; i < width; ++i) {
    Bitmap b(width);
    b.set(i);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.find_first_set(), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitmapWidthTest,
                         ::testing::Values(0, 1, 7, 8, 9, 31, 64, 127, 128));

// reset() reuses the words it has: shrinking and growing both leave a
// bitmap equal to a fresh one of the new size, every bit clear.
TEST(BigBitmap, ResetShrinksAndGrowsWithEveryBitClear) {
  BigBitmap b = BigBitmap::all_set(300);
  ASSERT_EQ(b.count(), 300u);
  const auto all_clear = [](const BigBitmap& x, std::size_t size) {
    EXPECT_EQ(x.size(), size);
    EXPECT_EQ(x.count(), 0u);
    EXPECT_TRUE(x.none());
    EXPECT_EQ(x.find_first_set(), size);
    for (std::size_t i = 0; i < size + 70; ++i) {
      EXPECT_FALSE(x.test(i)) << "bit " << i << " of " << size;
    }
  };
  b.reset(70);  // shrink
  all_clear(b, 70);
  b.set(69);
  b.set(3);
  EXPECT_EQ(b.count(), 2u);
  b.reset(500);  // grow past the old size
  all_clear(b, 500);
  b.set_all();
  EXPECT_EQ(b.count(), 500u);
  b.reset(128);
  all_clear(b, 128);
  b.set(127);
  EXPECT_EQ(b.find_first_set(), 127u);
  b.reset(0);
  all_clear(b, 0);
}

}  // namespace
}  // namespace mnp::util
