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

// --- the network's copy ----------------------------------------------------

std::vector<std::uint8_t> slice(const std::vector<std::uint8_t>& bytes,
                                std::size_t at, std::size_t n) {
  return {bytes.begin() + static_cast<std::ptrdiff_t>(at),
          bytes.begin() + static_cast<std::ptrdiff_t>(at + n)};
}

// Copy-on-write isolation. Two EEPROMs complete page 0 with the same
// bytes and hold it once; a differing write to the full page by one of
// them copies it first, so the other's bytes do not change. Killed by the
// scratch mutation that writes the network's copy in place (no
// copy-on-write).
TEST(EepromSharing, WritingASharedPageChangesNoOtherHolder) {
  PageStore store;
  Eeprom a(2 * kPage, nullptr, &store);
  Eeprom b(2 * kPage, nullptr, &store);
  const auto bytes = pattern(kPage);
  ASSERT_TRUE(a.write(0, bytes));
  ASSERT_TRUE(b.write(0, bytes));
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(a.resident_pages(), 1u);
  EXPECT_EQ(a.own_pages(), 0u);
  EXPECT_EQ(b.own_pages(), 0u);

  b.set_track_write_once(true);
  ASSERT_TRUE(b.write(100, {0xEE}));  // copy-on-write
  EXPECT_EQ(b.double_writes(), 1u);   // a full page's bytes are all marked
  EXPECT_EQ(b.own_pages(), 1u);
  EXPECT_EQ(b.read(99, 3), (std::vector<std::uint8_t>{100, 0xEE, 102}));
  EXPECT_EQ(a.read(0, kPage), bytes);
  EXPECT_EQ(a.own_pages(), 0u);

  // The network's copy keeps its bytes after their first writer lets go
  // of them; a later holder writing the same bytes reads them.
  a.erase();
  EXPECT_EQ(a.resident_pages(), 0u);
  EXPECT_EQ(a.read(0, 4), (std::vector<std::uint8_t>{0, 0, 0, 0}));
  Eeprom c(2 * kPage, nullptr, &store);
  ASSERT_TRUE(c.write(0, bytes));
  EXPECT_EQ(c.own_pages(), 0u);
  EXPECT_EQ(c.read(0, kPage), bytes);
  EXPECT_EQ(store.pages(), 1u);
}

// Page states and the store's gauges. A page written one byte short of
// full with the copy's bytes keeps marks only; a full page whose bytes
// differ from the copy holds its own; the byte that completes a
// marks-only page leaves it reading the copy whole. Killed by the scratch
// mutations that skip the compare (every write gives its page bytes of
// its own) and that mark a differing write without comparing it.
TEST(EepromSharing, OnlyPagesWhoseBytesDifferHoldTheirOwn) {
  PageStore store;
  Eeprom first(2 * kPage, nullptr, &store);
  ASSERT_TRUE(first.write(0, pattern(kPage)));
  Eeprom partial(2 * kPage, nullptr, &store);
  ASSERT_TRUE(partial.write(0, pattern(kPage - 1)));
  EXPECT_EQ(partial.own_pages(), 0u);
  EXPECT_EQ(store.mark_pages(), 1u);
  Eeprom other(2 * kPage, nullptr, &store);
  auto bytes = pattern(kPage);
  bytes[kPage / 2] ^= 1;
  ASSERT_TRUE(other.write(0, bytes));
  EXPECT_EQ(other.own_pages(), 1u);
  EXPECT_EQ(other.read(0, kPage), bytes);
  // The byte that completes the page drops its marks.
  ASSERT_TRUE(partial.write(kPage - 1, {static_cast<std::uint8_t>(kPage)}));
  EXPECT_EQ(partial.own_pages(), 0u);
  EXPECT_EQ(partial.resident_pages(), 1u);
  EXPECT_EQ(partial.read(0, kPage), pattern(kPage));
  EXPECT_EQ(store.mark_pages(), 0u);
  EXPECT_EQ(store.mark_pages_peak(), 1u);
  EXPECT_EQ(store.own_pages(), 1u);
  // A standalone EEPROM never shares, and its pages are not counted.
  Eeprom alone(2 * kPage);
  ASSERT_TRUE(alone.write(0, pattern(kPage)));
  EXPECT_EQ(alone.own_pages(), 1u);
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(store.own_pages(), 1u);
  other.erase();
  EXPECT_EQ(store.own_pages(), 0u);
  EXPECT_EQ(store.own_pages_peak(), 1u);
}

// A marks-only page reads the network's copy under its own marks only:
// zero where another holder wrote but it did not, across mark words and
// in ranges that start or end inside a marked run. Killed by the scratch
// mutation that reads a marks-only page without its marks.
TEST(EepromSharing, MarksOnlyPageReadsZeroWhereItNeverWrote) {
  PageStore store;
  Eeprom a(2 * kPage, nullptr, &store);
  Eeprom b(2 * kPage, nullptr, &store);
  const auto image = pattern(kPage + 300);
  ASSERT_TRUE(a.write(0, image));  // defines page 0 and 300 bytes of page 1
  ASSERT_TRUE(b.write(60, slice(image, 60, 70)));  // bytes 60..129
  ASSERT_TRUE(b.write(kPage + 10, slice(image, kPage + 10, 5)));
  EXPECT_EQ(b.own_pages(), 0u);
  EXPECT_EQ(b.resident_pages(), 2u);

  std::vector<std::uint8_t> expected(kPage + 300, 0);
  std::copy_n(image.begin() + 60, 70, expected.begin() + 60);
  std::copy_n(image.begin() + kPage + 10, 5, expected.begin() + kPage + 10);
  EXPECT_EQ(b.read(0, kPage + 300), expected);
  for (const auto& [at, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {50, 20}, {62, 3}, {120, 20}, {128, 1}, {130, 64}, {kPage - 4, 20}}) {
    EXPECT_EQ(b.read(at, n), slice(expected, at, n)) << at << "+" << n;
  }
}

// A differing write to a marks-only page first copies, from the network's
// copy, every byte the page marked, so the holder keeps what it wrote
// before. Killed by the scratch mutation that gives a marks-only page
// fresh zeroed bytes on a differing write.
TEST(EepromSharing, DifferingWriteKeepsTheHoldersEarlierBytes) {
  PageStore store;
  Eeprom seed(2 * kPage, nullptr, &store);
  const auto image = pattern(kPage);
  ASSERT_TRUE(seed.write(0, image));
  Eeprom a(2 * kPage, nullptr, &store);
  ASSERT_TRUE(a.write(0, slice(image, 0, 100)));
  ASSERT_TRUE(a.write(2000, slice(image, 2000, 100)));
  EXPECT_EQ(a.own_pages(), 0u);
  EXPECT_EQ(store.mark_pages(), 1u);

  ASSERT_TRUE(a.write(500, {0xEE, 0xEF}));  // differs from image[500..501]
  EXPECT_EQ(a.own_pages(), 1u);
  EXPECT_EQ(store.mark_pages(), 0u);
  EXPECT_EQ(store.own_pages(), 1u);
  std::vector<std::uint8_t> expected(kPage, 0);
  std::copy_n(image.begin(), 100, expected.begin());
  std::copy_n(image.begin() + 2000, 100, expected.begin() + 2000);
  expected[500] = 0xEE;
  expected[501] = 0xEF;
  EXPECT_EQ(a.read(0, kPage), expected);
  EXPECT_EQ(seed.read(0, kPage), image);
}

// A differing write leaves the network's copy as it is: another holder of
// the same bytes reads them unchanged, and a later writer of the copy's
// bytes still keeps marks only. Bytes nobody has written are defined by
// their first writer, even one whose page holds its own bytes. Killed by
// the scratch mutation that writes a differing write's bytes into the
// network's copy.
TEST(EepromSharing, DifferingWriteLeavesTheNetworksCopyAlone) {
  PageStore store;
  Eeprom a(kPage, nullptr, &store);
  Eeprom b(kPage, nullptr, &store);
  Eeprom c(kPage, nullptr, &store);
  const auto image = pattern(200);
  ASSERT_TRUE(a.write(0, image));
  const std::vector<std::uint8_t> mine(50, 0xAB);
  ASSERT_TRUE(b.write(100, mine));
  EXPECT_EQ(b.own_pages(), 1u);
  EXPECT_EQ(b.read(100, 50), mine);
  EXPECT_EQ(a.read(0, 200), image);
  ASSERT_TRUE(c.write(100, slice(image, 100, 50)));
  EXPECT_EQ(c.own_pages(), 0u);
  EXPECT_EQ(c.read(100, 50), slice(image, 100, 50));

  // First writer: b, holding its own bytes, defines 300..309.
  const std::vector<std::uint8_t> later(10, 0x5A);
  ASSERT_TRUE(b.write(300, later));
  ASSERT_TRUE(c.write(300, later));
  EXPECT_EQ(c.own_pages(), 0u);
  ASSERT_TRUE(a.write(300, std::vector<std::uint8_t>(10, 0x11)));
  EXPECT_EQ(a.own_pages(), 1u);
  EXPECT_EQ(c.read(300, 10), later);
  EXPECT_EQ(store.pages(), 1u);
  EXPECT_EQ(store.own_pages(), 2u);
  EXPECT_EQ(store.mark_pages(), 1u);
}

// Write-once tracking sees earlier marks on a marks-only page and every
// byte of a full page, even when the second write repeats the copy's
// bytes and so neither copies nor changes anything. Killed by the
// scratch mutations that count every byte of a matching write as fresh,
// on a marks-only page and on a full one.
TEST(EepromSharing, WriteOnceTrackingSeesMarksOnlyAndFullPages) {
  PageStore store;
  Eeprom seed(2 * kPage, nullptr, &store);
  const auto image = pattern(2 * kPage);
  ASSERT_TRUE(seed.write(0, image));
  Eeprom a(2 * kPage, nullptr, &store);
  a.set_track_write_once(true);
  ASSERT_TRUE(a.write(0, slice(image, 0, 64)));
  ASSERT_TRUE(a.write(64, slice(image, 64, 64)));  // disjoint, same page
  EXPECT_EQ(a.double_writes(), 0u);
  ASSERT_TRUE(a.write(60, slice(image, 60, 10)));  // marks-only overlap
  EXPECT_EQ(a.double_writes(), 1u);
  ASSERT_TRUE(a.write(128, slice(image, 128, kPage - 128)));  // completes
  EXPECT_EQ(a.double_writes(), 1u);
  ASSERT_TRUE(a.write(kPage / 2, slice(image, kPage / 2, 1)));  // full page
  EXPECT_EQ(a.double_writes(), 2u);
  ASSERT_TRUE(a.write(kPage - 1, slice(image, kPage - 1, 2)));  // straddles
  EXPECT_EQ(a.double_writes(), 3u);
  ASSERT_TRUE(a.write(kPage + 1, slice(image, kPage + 1, 1)));  // fresh
  EXPECT_EQ(a.double_writes(), 3u);
  EXPECT_EQ(a.own_pages(), 0u);
  EXPECT_EQ(a.resident_pages(), 2u);
  EXPECT_EQ(a.read(0, kPage), slice(image, 0, kPage));
}

// A holder with marks on more pages at once than the EEPROM keeps slots
// for inline (XNP leaves holes across its whole image) spills into a
// slot list reserved once for every page; slots freed by full pages and
// by erase() are reused, and every page still reads its own bytes.
TEST(EepromSharing, HolderWithManyPartialPagesSpillsItsSlotsOnce) {
  constexpr std::size_t kPages = 12;
  PageStore store;
  Eeprom a(kPages * kPage, nullptr, &store);
  const auto image = pattern(kPages * kPage);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(a.write(p * kPage + p, slice(image, p * kPage + p, 1)));
    }
    EXPECT_EQ(a.resident_pages(), kPages);
    EXPECT_EQ(store.mark_pages(), kPages);
    ASSERT_TRUE(a.write(0, slice(image, 0, 3 * kPage)));  // fills 3 pages
    ASSERT_TRUE(a.write(5 * kPage + 5, {0xEE}));          // own bytes
    EXPECT_EQ(store.mark_pages(), kPages - 4);
    EXPECT_EQ(a.own_pages(), 1u);
    std::vector<std::uint8_t> expected(kPages * kPage, 0);
    std::copy_n(image.begin(), 3 * kPage, expected.begin());
    for (std::size_t p = 3; p < kPages; ++p) {
      expected[p * kPage + p] = image[p * kPage + p];
    }
    expected[5 * kPage + 5] = 0xEE;
    EXPECT_EQ(a.read(0, kPages * kPage), expected) << "round " << round;
    a.erase();
    EXPECT_EQ(store.mark_pages() + store.own_pages(), 0u);
  }
  EXPECT_EQ(store.mark_pages_peak(), kPages);
}

// Differential: four EEPROMs on one page store, each beside a store-less
// oracle, plus a fifth that only ever writes the common image, driven by
// one seeded stream of operations. Most writes copy the common image;
// short ones write bytes of their own over bytes some holder has already
// written, so the network's copy holds the image wherever it is defined
// while marks-only and full pages gain bytes of their own. Writes straddle
// pages, overlap and repeat; whole-page and short reads and erase() are
// mixed in. After every operation each EEPROM must read, count and hold
// pages exactly as its oracle does, the store's gauges must match the
// holders, and the image-only holder must hold no bytes of its own.
// Killed by each of the scratch mutations named above.
TEST(EepromSharing, MatchesStoreLessOraclesUnderRandomOperations) {
  constexpr std::size_t kCapacity = 6 * kPage;
  constexpr std::size_t kHolders = 5;
  constexpr std::size_t kImageOnly = kHolders - 1;
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
  // fuller one, so a read that ignores the marks shows.
  std::vector<std::uint8_t> image(kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    image[i] = i % 1024 < 8 ? static_cast<std::uint8_t>(i / 1024 + 1) : 0;
  }
  std::vector<bool> written(kCapacity, false);  // by any holder

  std::mt19937_64 rng(27);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t shared_seen = 0;
  std::size_t from_marks = 0;  // differing writes to a marks-only page
  std::size_t from_full = 0;   // differing writes to a full page
  for (int op = 0; op < 4000; ++op) {
    const std::size_t h = below(kHolders);
    Eeprom& s = *shared[h];
    Eeprom& o = *oracle[h];
    const std::size_t kind = below(100);
    const std::size_t len = 1 + below(kPage);
    const std::size_t at = below(kCapacity - len + 1);
    const std::size_t resident = s.resident_pages();
    const std::size_t own = s.own_pages();
    const std::size_t marks = store.mark_pages();
    if (kind < 70 || (kind < 80 && h == kImageOnly)) {
      const std::span<const std::uint8_t> run(image.data() + at, len);
      ASSERT_TRUE(s.write(at, run));
      ASSERT_TRUE(o.write(at, run));
      std::fill_n(written.begin() + static_cast<std::ptrdiff_t>(at), len,
                  true);
    } else if (kind < 80) {
      std::size_t n = 0;
      while (n < 64 && n < len && written[at + n]) ++n;
      std::vector<std::uint8_t> mine(n);
      for (auto& b : mine) b = static_cast<std::uint8_t>(rng() | 0x80);
      ASSERT_TRUE(s.write(at, mine));
      ASSERT_TRUE(o.write(at, mine));
      if (s.resident_pages() == resident && s.own_pages() > own) {
        ++(store.mark_pages() < marks ? from_marks : from_full);
      }
    } else if (kind < 90) {
      ASSERT_EQ(s.read(at, len), o.read(at, len)) << "op " << op;
    } else if (kind < 99) {
      const std::size_t n = 1 + below(130);
      const std::size_t from = below(kCapacity - n + 1);
      ASSERT_EQ(s.read(from, n), o.read(from, n)) << "op " << op;
    } else {
      s.erase();
      o.erase();
    }
    std::size_t own_total = 0;
    std::size_t unowned = 0;
    for (std::size_t i = 0; i < kHolders; ++i) {
      Eeprom& si = *shared[i];
      Eeprom& oi = *oracle[i];
      ASSERT_EQ(si.double_writes(), oi.double_writes()) << "op " << op;
      ASSERT_EQ(si.total_writes(), oi.total_writes()) << "op " << op;
      ASSERT_EQ(si.total_reads(), oi.total_reads()) << "op " << op;
      ASSERT_EQ(si.bytes_written(), oi.bytes_written()) << "op " << op;
      ASSERT_EQ(si.resident_pages(), oi.resident_pages()) << "op " << op;
      ASSERT_LE(si.own_pages(), si.resident_pages());
      ASSERT_EQ(si.read(0, kCapacity), oi.read(0, kCapacity))
          << "holder " << i << " op " << op;
      own_total += si.own_pages();
      unowned += si.resident_pages() - si.own_pages();
    }
    ASSERT_EQ(shared[kImageOnly]->own_pages(), 0u) << "op " << op;
    ASSERT_EQ(store.own_pages(), own_total) << "op " << op;
    ASSERT_LE(store.mark_pages(), unowned) << "op " << op;
    shared_seen += unowned;
  }
  EXPECT_GT(shared_seen, 0u);
  EXPECT_GT(from_marks, 0u);
  EXPECT_GT(from_full, 0u);
  EXPECT_GT(shared[kImageOnly]->resident_pages(), 0u);
  EXPECT_LE(store.pages(), kCapacity / kPage);
}

}  // namespace
}  // namespace mnp::storage
