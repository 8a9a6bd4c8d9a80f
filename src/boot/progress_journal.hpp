// Progress journal: crash-safe download bookkeeping in the EEPROM tail.
//
// The paper's recovery story ("a node that reboots rejoins the network
// and resumes the download") needs something to resume *from*: RAM state
// — received-segment bitmaps, page counters — dies with the mote, while
// the payload bytes already written to external flash survive. The
// journal closes that gap. Every time a protocol finishes a durable unit
// of download (an MNP segment, a Deluge page, an NCast generation, a MOAP
// chunk) it appends a fixed-size record; after a reboot, start() replays
// the journal and re-marks the completed prefix as held instead of
// fetching it again.
//
// Layout: the last kRegionBytes of the EEPROM, divided into 16-byte
// slots written low to high. Records are append-only — the region is
// never erased or rewritten, so the journal coexists with the harness's
// write-once tracking (every slot is written at most once per EEPROM
// lifetime) and a torn final record simply fails its CRC and is ignored.
// Records carry the program identity they were journaled under; recovery
// reads only the trailing run of records that agree on it, so stale
// entries from a previous dissemination cannot poison a new one.
#pragma once

#include <cstdint>
#include <optional>

#include "storage/eeprom.hpp"

namespace mnp::boot {

class ProgressJournal {
 public:
  /// Tail region size. 4 KiB / 16-byte slots = 256 records, comfortably
  /// above the repo's largest figure run (5 segments; Deluge pages and
  /// MOAP chunks stay well under it too).
  static constexpr std::size_t kRegionBytes = 4096;
  static constexpr std::size_t kSlotBytes = 16;

  explicit ProgressJournal(storage::Eeprom& eeprom) : eeprom_(eeprom) {}

  /// First byte of the journal region.
  std::size_t region_offset() const {
    return eeprom_.capacity() - kRegionBytes;
  }

  /// True when the journal tail does not overlap an image ending at
  /// `image_end`.
  bool usable(std::size_t image_end) const {
    return eeprom_.capacity() >= kRegionBytes && image_end <= region_offset();
  }

  /// Appends one completed-unit record for an image of `program_bytes`
  /// stored from offset 0. Returns false, writing nothing, when the
  /// region would overlap that image (a huge image on a tiny EEPROM runs
  /// without a journal instead of corrupting itself) or is full
  /// (recovery then just misses the overflow — never corrupts).
  bool append(std::uint16_t program_id, std::uint32_t program_bytes,
              std::uint16_t unit);

  struct Recovered {
    std::uint16_t program_id = 0;
    std::uint32_t program_bytes = 0;
    /// Completed-unit prefix: the largest k such that units 1, 2, ..., k
    /// appear in that order in the trailing run. Units complete strictly
    /// in order, so this is what the node holds; 0 if unit 1 is missing.
    std::uint16_t prefix = 0;
  };

  /// Replays the journal: the identity of the trailing run of CRC-valid
  /// records that agree on (program_id, program_bytes), and that run's
  /// completed-unit prefix. Empty optional when no valid record exists.
  /// (Non-const: EEPROM reads bill the energy meter.)
  std::optional<Recovered> recover();

  /// Number of CRC-valid records currently in the region.
  std::size_t entries();

 private:
  struct Record {
    std::uint16_t program_id = 0;
    std::uint32_t program_bytes = 0;
    std::uint16_t unit = 0;
  };

  std::optional<Record> read_slot(std::size_t slot);
  std::size_t slot_count() const { return kRegionBytes / kSlotBytes; }

  storage::Eeprom& eeprom_;
};

}  // namespace mnp::boot
