// Unit tests for the EEPROM model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

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

// --- shared pages ----------------------------------------------------------

// Copy-on-write isolation. Two EEPROMs complete page 0 with the same
// bytes and hold it once; a write to the shared page by one of them
// copies it first, so the other's bytes do not change. Killed by the
// scratch mutation that writes a shared page in place (no copy-on-write).
TEST(EepromSharing, WritingASharedPageChangesNoOtherHolder) {
  PageStore store;
  Eeprom a(2 * kPage, nullptr, &store);
  Eeprom b(2 * kPage, nullptr, &store);
  const auto bytes = pattern(kPage);
  ASSERT_TRUE(a.write(0, bytes));
  ASSERT_TRUE(b.write(0, bytes));
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(a.resident_pages(), 1u);
  EXPECT_EQ(a.private_pages(), 0u);
  EXPECT_EQ(b.private_pages(), 0u);

  b.set_track_write_once(true);
  ASSERT_TRUE(b.write(100, {0xEE}));  // copy-on-write
  EXPECT_EQ(b.double_writes(), 1u);   // a full page's bytes are all marked
  EXPECT_EQ(b.private_pages(), 1u);
  EXPECT_EQ(b.read(99, 3), (std::vector<std::uint8_t>{100, 0xEE, 102}));
  EXPECT_EQ(a.read(0, kPage), bytes);
  EXPECT_EQ(a.private_pages(), 0u);

  // The store keeps the first completed page after its first holder lets
  // go of it; a later holder completing it with the same bytes reads it.
  a.erase();
  EXPECT_EQ(a.resident_pages(), 0u);
  EXPECT_EQ(a.read(0, 4), (std::vector<std::uint8_t>{0, 0, 0, 0}));
  Eeprom c(2 * kPage, nullptr, &store);
  ASSERT_TRUE(c.write(0, bytes));
  EXPECT_EQ(c.private_pages(), 0u);
  EXPECT_EQ(c.read(0, kPage), bytes);
  EXPECT_EQ(store.pages(), 1u);
}

// Killed by the scratch mutations that share a page before it is full
// and that share without comparing bytes.
TEST(EepromSharing, OnlyFullPagesWithTheStoresBytesAreShared) {
  PageStore store;
  Eeprom first(2 * kPage, nullptr, &store);
  ASSERT_TRUE(first.write(0, pattern(kPage)));
  // A page one byte short of full stays private, and so does a full page
  // whose bytes differ from the store's.
  Eeprom partial(2 * kPage, nullptr, &store);
  ASSERT_TRUE(partial.write(0, pattern(kPage - 1)));
  EXPECT_EQ(partial.private_pages(), 1u);
  Eeprom other(2 * kPage, nullptr, &store);
  auto bytes = pattern(kPage);
  bytes[kPage / 2] ^= 1;
  ASSERT_TRUE(other.write(0, bytes));
  EXPECT_EQ(other.private_pages(), 1u);
  EXPECT_EQ(other.read(0, kPage), bytes);
  // The byte that completes the page shares it.
  ASSERT_TRUE(partial.write(kPage - 1, {static_cast<std::uint8_t>(kPage)}));
  EXPECT_EQ(partial.private_pages(), 0u);
  EXPECT_EQ(partial.resident_pages(), 1u);
  // A standalone EEPROM never shares.
  Eeprom alone(2 * kPage);
  ASSERT_TRUE(alone.write(0, pattern(kPage)));
  EXPECT_EQ(alone.private_pages(), 1u);
  EXPECT_EQ(store.pages(), 1u);
}

// Differential: four EEPROMs on one page store, each beside a store-less
// oracle, driven by one seeded stream of operations. Most writes copy a
// common image, so pages fill up with equal bytes and are shared; the rest
// write bytes of their own, so some full pages differ from the store's and
// some shared pages are written again. Writes straddle pages, overlap and
// repeat; reads and erase() are mixed in. After every operation each
// EEPROM must read, count and hold pages exactly as its oracle does.
// Killed by each of three scratch mutations: writing a shared page in
// place (no copy-on-write), sharing a page before it is full, and sharing
// without comparing bytes.
TEST(EepromSharing, MatchesStoreLessOraclesUnderRandomOperations) {
  constexpr std::size_t kCapacity = 6 * kPage;
  constexpr std::size_t kHolders = 4;
  PageStore store;
  std::vector<std::unique_ptr<Eeprom>> shared;
  std::vector<std::unique_ptr<Eeprom>> oracle;
  for (std::size_t i = 0; i < kHolders; ++i) {
    shared.push_back(std::make_unique<Eeprom>(kCapacity, nullptr, &store));
    oracle.push_back(std::make_unique<Eeprom>(kCapacity));
    shared.back()->set_track_write_once(true);
    oracle.back()->set_track_write_once(true);
  }
  // A mostly zero image lets a partial page hold the same bytes as a
  // fuller one, so a page shared before it is full shows in its marks.
  std::vector<std::uint8_t> image(kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    image[i] = i % 1024 < 8 ? static_cast<std::uint8_t>(i / 1024 + 1) : 0;
  }

  std::mt19937_64 rng(27);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t shared_seen = 0;
  std::size_t copies_seen = 0;
  for (int op = 0; op < 4000; ++op) {
    const std::size_t h = below(kHolders);
    Eeprom& s = *shared[h];
    Eeprom& o = *oracle[h];
    const std::size_t kind = below(100);
    const std::size_t len = 1 + below(kPage);
    const std::size_t at = below(kCapacity - len + 1);
    if (kind < 75) {
      const std::span<const std::uint8_t> run(image.data() + at, len);
      const std::size_t resident = s.resident_pages();
      const std::size_t own = s.private_pages();
      ASSERT_TRUE(s.write(at, run));
      ASSERT_TRUE(o.write(at, run));
      // More private pages and no new page: a shared page was copied.
      if (s.resident_pages() == resident && s.private_pages() > own) {
        ++copies_seen;
      }
    } else if (kind < 80) {
      std::vector<std::uint8_t> own(len);
      for (auto& b : own) b = static_cast<std::uint8_t>(rng());
      ASSERT_TRUE(s.write(at, own));
      ASSERT_TRUE(o.write(at, own));
    } else if (kind < 99) {
      ASSERT_EQ(s.read(at, len), o.read(at, len)) << "op " << op;
    } else {
      s.erase();
      o.erase();
    }
    for (std::size_t i = 0; i < kHolders; ++i) {
      Eeprom& si = *shared[i];
      Eeprom& oi = *oracle[i];
      ASSERT_EQ(si.double_writes(), oi.double_writes()) << "op " << op;
      ASSERT_EQ(si.total_writes(), oi.total_writes()) << "op " << op;
      ASSERT_EQ(si.total_reads(), oi.total_reads()) << "op " << op;
      ASSERT_EQ(si.bytes_written(), oi.bytes_written()) << "op " << op;
      ASSERT_EQ(si.resident_pages(), oi.resident_pages()) << "op " << op;
      ASSERT_LE(si.private_pages(), si.resident_pages());
      ASSERT_EQ(si.read(0, kCapacity), oi.read(0, kCapacity))
          << "holder " << i << " op " << op;
      shared_seen += si.resident_pages() - si.private_pages();
    }
  }
  EXPECT_GT(shared_seen, 0u);
  EXPECT_GT(copies_seen, 0u);
  EXPECT_LE(store.pages(), kCapacity / kPage);
}

}  // namespace
}  // namespace mnp::storage
