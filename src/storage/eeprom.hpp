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
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "energy/energy_meter.hpp"

namespace mnp::storage {

class Eeprom {
 public:
  static constexpr std::size_t kDefaultCapacity = 512 * 1024;
  /// Allocation unit. Equal to ProgressJournal::kRegionBytes, so the
  /// journal occupies exactly the top page of a default-capacity flash.
  static constexpr std::size_t kPageBytes = 4096;

  /// `meter` may be null (no energy accounting). Not owned.
  explicit Eeprom(std::size_t capacity = kDefaultCapacity,
                  energy::EnergyMeter* meter = nullptr);

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
  /// by freeing every page.
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

  /// Pages allocated so far (written since construction or the last
  /// erase()).
  std::size_t resident_pages() const;

 private:
  /// True when [offset, offset + n) lies within capacity.
  bool fits(std::size_t offset, std::size_t n) const {
    return offset <= capacity_ && n <= capacity_ - offset;
  }

  struct Page {
    std::uint8_t data[kPageBytes];
    std::uint64_t written[kPageBytes / 64];  // one write mark per byte
  };

  std::size_t capacity_;
  std::vector<std::unique_ptr<Page>> pages_;
  energy::EnergyMeter* meter_;
  bool track_write_once_ = false;
  std::uint64_t double_writes_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace mnp::storage
