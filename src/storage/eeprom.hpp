// External flash (EEPROM) model of a Mica-2 mote.
//
// Mica-2/XSM motes carry a 512 KB external flash used as the staging area
// for incoming code images. The model stores bytes, charges the energy
// meter per access, and — because MNP guarantees every packet is written
// exactly once — can be armed to detect double writes to the same range.
//
// The flash is held as kPageBytes pages set up on first write, so a mote
// costs what its image and journal touch, not the full capacity. Bytes
// never written read as zero, and a read never allocates a page.
//
// EEPROMs built on one PageStore keep their bytes there: the store is the
// network's one copy of flash content, for each page index the bytes first
// written at each offset by any of its EEPROMs. A page of an EEPROM is in
// one of four states:
//  - untouched: nothing written since construction or erase(); reads zero.
//  - marks only: every byte it wrote equals the network's copy, so it keeps
//    just its 512 bytes of write marks and reads the copy under them (zero
//    where a byte is unmarked).
//  - full: every byte is marked and equals the copy; the marks go too, and
//    the page reads the copy whole.
//  - own: a write's bytes differed from the copy, so the page holds bytes
//    of its own, first copied from the network's copy under its marks (the
//    one copy-on-write). It stays own until erase().
// Sharing changes no read, mark, counter or energy charge; only
// own_pages() and the store's gauges tell it apart. A standalone EEPROM,
// and pages past a default-capacity flash, hold bytes of their own.
#pragma once

#include <array>
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
  /// owned. `capacity` is at most 65,534 pages.
  explicit Eeprom(std::size_t capacity = kDefaultCapacity,
                  energy::EnergyMeter* meter = nullptr,
                  PageStore* store = nullptr);
  ~Eeprom();
  Eeprom(const Eeprom&) = delete;
  Eeprom& operator=(const Eeprom&) = delete;

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
  /// by dropping every page's marks and own bytes. The network's copy
  /// keeps its bytes.
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

  /// Pages written since construction or the last erase(), in any state.
  std::size_t resident_pages() const;
  /// Of those, the pages holding bytes of their own.
  std::size_t own_pages() const;

 private:
  friend class PageStore;

  /// Page indexes a PageStore covers: those of a default-capacity flash.
  static constexpr std::size_t kSharedPages = kDefaultCapacity / kPageBytes;
  static constexpr std::size_t kMarkWords = kPageBytes / 64;

  /// The marks of a page in the marks-only or own state, and its own
  /// bytes in the latter.
  struct Block {
    std::uint64_t written[kMarkWords] = {};  // one write mark per byte
    std::size_t marked = 0;                  // marks set
    std::unique_ptr<std::uint8_t[]> own;     // null while marks only
  };

  /// page_[index] values besides 1 + the slot of the page's Block.
  static constexpr std::uint16_t kUntouched = 0;
  static constexpr std::uint16_t kFull = 0xFFFF;
  /// Block slots held in the object. A node with more marks-only or own
  /// pages at once reserves room for every page once, on the first spill.
  static constexpr std::size_t kInlineBlocks = 4;

  /// True when [offset, offset + n) lies within capacity.
  bool fits(std::size_t offset, std::size_t n) const {
    return offset <= capacity_ && n <= capacity_ - offset;
  }
  /// True when page `index` keeps its bytes in the network's copy unless
  /// a differing write gave it its own.
  bool shares(std::size_t index) const {
    return store_ != nullptr && index < kSharedPages;
  }
  std::size_t slots() const { return kInlineBlocks + more_blocks_.size(); }
  std::unique_ptr<Block>& slot(std::size_t s) {
    return s < kInlineBlocks ? inline_blocks_[s]
                             : more_blocks_[s - kInlineBlocks];
  }
  const std::unique_ptr<Block>& slot(std::size_t s) const {
    return s < kInlineBlocks ? inline_blocks_[s]
                             : more_blocks_[s - kInlineBlocks];
  }
  /// The Block of page `index`, or null when it is untouched or full.
  Block* block_at(std::size_t index) const;
  /// A fresh marks-only Block for page `index`, in the first free slot.
  Block& new_block(std::size_t index);
  /// Page `index` holding bytes of its own, copied from the network's copy
  /// under its marks when it had none.
  Block& own_block(std::size_t index);

  /// Writes bytes [first, first + n) of page `index` from `src`; returns
  /// how many of them were not marked before.
  std::size_t write_run(std::size_t index, std::size_t first,
                        const std::uint8_t* src, std::size_t n);
  /// Marks bytes [first, first + n) of a page whose bytes there equal the
  /// network's copy; returns how many were not marked before.
  std::size_t mark_run(std::size_t index, std::size_t first, std::size_t n);
  /// Reads bytes [first, first + n) of page `index` into `dst`.
  void read_run(std::size_t index, std::size_t first, std::uint8_t* dst,
                std::size_t n) const;

  std::size_t capacity_;
  std::vector<std::uint16_t> page_;  // per page index: state or Block slot
  std::array<std::unique_ptr<Block>, kInlineBlocks> inline_blocks_;
  std::vector<std::unique_ptr<Block>> more_blocks_;
  energy::EnergyMeter* meter_;
  PageStore* store_;
  bool track_write_once_ = false;
  std::uint64_t double_writes_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// The network's one copy of flash content: for each page index, the
/// bytes first written at each offset by any of its EEPROMs, and one
/// "defined" bit per byte. A defined byte never changes, and a page lives
/// as long as the store, so the store must outlive every EEPROM built on
/// it; node::Network declares its store before its nodes. One store per
/// network, never shared between networks or threads.
///
/// The store also counts the pages its EEPROMs hold with bytes of their
/// own and as marks only, now and at their peak: with pages(), these
/// account for every flash page a network keeps in memory.
class PageStore {
 public:
  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Pages of the network's copy.
  std::size_t pages() const { return pages_held_; }
  std::size_t own_pages() const { return own_.now; }
  std::size_t own_pages_peak() const { return own_.peak; }
  std::size_t mark_pages() const { return marks_.now; }
  std::size_t mark_pages_peak() const { return marks_.peak; }

 private:
  friend class Eeprom;

  struct Page {
    std::uint8_t data[Eeprom::kPageBytes];
    std::uint64_t defined[Eeprom::kMarkWords];  // one bit per byte
  };
  struct Gauge {
    std::size_t now = 0;
    std::size_t peak = 0;
    void add() {
      if (++now > peak) peak = now;
    }
    void remove() { --now; }
  };

  /// Page `index` of the copy once bytes [first, first + n) that no
  /// EEPROM has written yet are defined from `src`.
  const Page& define(std::size_t index, std::size_t first,
                     const std::uint8_t* src, std::size_t n);

  std::array<std::unique_ptr<Page>, Eeprom::kSharedPages> pages_;
  std::size_t pages_held_ = 0;
  Gauge own_;
  Gauge marks_;
};

}  // namespace mnp::storage
