// External flash (EEPROM) model of a Mica-2 mote.
//
// Mica-2/XSM motes carry a 512 KB external flash used as the staging area
// for incoming code images. The model stores bytes, charges the energy
// meter per access, and — because MNP guarantees every packet is written
// exactly once — can be armed to detect double writes to the same range.
//
// The flash is held as kPageBytes pages allocated on first write, so a
// mote costs what its image and journal touch, not the full capacity.
// Bytes never written read as zero, and a read never allocates a page.
//
// EEPROMs built on one PageStore share full pages. When a write marks the
// last unmarked byte of a page, the store keeps that page if it holds none
// at that index; if it holds one with equal bytes, the EEPROM frees its
// own and reads the store's. A later write to a shared page first copies
// it into a private page again (copy-on-write). A page with any byte never
// written stays private: an image's last partial page, and the progress
// journal's page until its 256 slots fill. Sharing changes no read, mark,
// counter or energy charge; only private_pages() tells it apart.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "energy/energy_meter.hpp"

namespace mnp::storage {

class PageStore;

class Eeprom {
 public:
  static constexpr std::size_t kDefaultCapacity = 512 * 1024;
  /// Allocation unit. Equal to ProgressJournal::kRegionBytes, so the
  /// journal occupies exactly the top page of a default-capacity flash.
  static constexpr std::size_t kPageBytes = 4096;

  /// `meter` may be null (no energy accounting). `store` may be null (no
  /// page sharing); otherwise it must outlive this EEPROM. Neither is
  /// owned.
  explicit Eeprom(std::size_t capacity = kDefaultCapacity,
                  energy::EnergyMeter* meter = nullptr,
                  PageStore* store = nullptr);

  std::size_t capacity() const { return capacity_; }

  /// Writes `bytes` at `offset`. Returns false (and writes nothing) if the
  /// range falls outside capacity.
  bool write(std::size_t offset, std::span<const std::uint8_t> bytes);
  bool write(std::size_t offset, const std::vector<std::uint8_t>& bytes) {
    return write(offset, std::span<const std::uint8_t>(bytes));
  }

  /// Fills `out` with the `out.size()` bytes at `offset`. Returns false
  /// (and reads nothing) if the range falls outside capacity.
  [[nodiscard]] bool read(std::size_t offset, std::span<std::uint8_t> out);

  /// Reads `length` bytes at `offset` into a fresh vector; empty on a
  /// range error.
  [[nodiscard]] std::vector<std::uint8_t> read(std::size_t offset,
                                               std::size_t length);

  /// Allocation-free variant: fills `out` (typically a pooled buffer) with
  /// the bytes; leaves it empty on a range error.
  void read_into(std::size_t offset, std::size_t length,
                 std::vector<std::uint8_t>& out);

  /// Erases all content and per-byte write marks (new reprogramming round)
  /// by freeing every private page and letting go of every shared one.
  void erase();

  /// With write-once tracking on, a second write overlapping a previously
  /// written byte bumps `double_writes()` — the MNP invariant violation
  /// counter asserted on in tests. Every write is marked whether or not
  /// tracking is on, so arming it later still sees earlier writes.
  void set_track_write_once(bool on) { track_write_once_ = on; }
  std::uint64_t double_writes() const { return double_writes_; }

  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Pages written since construction or the last erase(), private or
  /// shared.
  std::size_t resident_pages() const;
  /// Of those, the pages this EEPROM holds alone, outside its page store.
  std::size_t private_pages() const;

 private:
  friend class PageStore;

  /// Page indexes a PageStore covers: those of a default-capacity flash.
  /// Pages of a larger EEPROM beyond them stay private.
  static constexpr std::size_t kSharedPages = kDefaultCapacity / kPageBytes;

  /// True when [offset, offset + n) lies within capacity.
  bool fits(std::size_t offset, std::size_t n) const {
    return offset <= capacity_ && n <= capacity_ - offset;
  }

  struct Page {
    std::uint8_t data[kPageBytes];
    std::uint64_t written[kPageBytes / 64];  // one write mark per byte
    std::size_t marked = 0;  // marks set; kPageBytes when the page is full
  };

  bool shares(std::size_t index) const {
    return index < kSharedPages && shared_[index];
  }
  /// The page a read at `index` sees: private, shared, or null (zeros).
  const Page* page_at(std::size_t index) const;
  /// Allocates the private page at `index`: zeroed, or a copy of the
  /// shared page there (copy-on-write).
  Page& own_page(std::size_t index);
  /// Called when the private page at `index` has just become full: the
  /// store keeps it if it holds none there, and if it holds one with
  /// equal bytes this EEPROM frees its own and reads the store's.
  void offer(std::size_t index);

  std::size_t capacity_;
  std::vector<std::unique_ptr<Page>> pages_;  // private pages
  std::bitset<kSharedPages> shared_;  // indexes read from the page store
  energy::EnergyMeter* meter_;
  PageStore* store_;
  bool track_write_once_ = false;
  std::uint64_t double_writes_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// The full pages one network's EEPROMs share: for each page index, the
/// first page any of them completed. A page here is never written again
/// and lives as long as the store, so the store must outlive every EEPROM
/// that reads through it; node::Network declares its store before its
/// nodes. One store per network, never shared between networks or
/// threads.
class PageStore {
 public:
  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Pages held.
  std::size_t pages() const;

 private:
  friend class Eeprom;
  std::array<std::unique_ptr<Eeprom::Page>, Eeprom::kSharedPages> pages_;
};

}  // namespace mnp::storage
