#include "boot/progress_journal.hpp"

#include <array>

#include "util/crc32.hpp"

namespace mnp::boot {

namespace {

// "PJ" — distinguishes a written slot from erased flash (zeros).
constexpr std::uint16_t kMagic = 0x504A;

using Slot = std::array<std::uint8_t, ProgressJournal::kSlotBytes>;

void put_u16(Slot& out, std::size_t at, std::uint16_t v) {
  out[at] = static_cast<std::uint8_t>(v & 0xFF);
  out[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(Slot& out, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

std::uint16_t get_u16(const Slot& in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

std::uint32_t get_u32(const Slot& in, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::optional<ProgressJournal::Record> ProgressJournal::read_slot(
    std::size_t slot) {
  Slot raw{};
  if (!eeprom_.read(region_offset() + slot * kSlotBytes, raw)) {
    return std::nullopt;
  }
  if (get_u16(raw, 0) != kMagic) return std::nullopt;
  if (util::crc32(raw.data(), 12) != get_u32(raw, 12)) return std::nullopt;
  Record rec;
  rec.program_id = get_u16(raw, 2);
  rec.program_bytes = get_u32(raw, 4);
  rec.unit = get_u16(raw, 8);
  return rec;
}

bool ProgressJournal::append(std::uint16_t program_id,
                             std::uint32_t program_bytes, std::uint16_t unit) {
  if (!usable(program_bytes)) return false;
  // First slot that does not hold a valid record is the append point —
  // re-derived from flash every time, because the RAM that could cache it
  // is exactly what a crash wipes.
  std::size_t slot = 0;
  while (slot < slot_count() && read_slot(slot)) ++slot;
  if (slot == slot_count()) return false;
  Slot raw{};
  put_u16(raw, 0, kMagic);
  put_u16(raw, 2, program_id);
  put_u32(raw, 4, program_bytes);
  put_u16(raw, 8, unit);
  // bytes 10-11 reserved (zero)
  put_u32(raw, 12, util::crc32(raw.data(), 12));
  return eeprom_.write(region_offset() + slot * kSlotBytes, raw);
}

std::optional<ProgressJournal::Recovered> ProgressJournal::recover() {
  if (eeprom_.capacity() < kRegionBytes) return std::nullopt;
  std::optional<Recovered> out;
  for (std::size_t slot = 0; slot < slot_count(); ++slot) {
    const auto rec = read_slot(slot);
    if (!rec) break;  // append-only: first invalid slot ends the journal
    // A record under another identity starts a new run: only the trailing
    // run is the current download; anything before it is a previous
    // program's journal.
    if (!out || out->program_id != rec->program_id ||
        out->program_bytes != rec->program_bytes) {
      out = Recovered{rec->program_id, rec->program_bytes, 0};
    }
    if (rec->unit == out->prefix + 1) out->prefix = rec->unit;
  }
  return out;
}

std::size_t ProgressJournal::entries() {
  std::size_t slot = 0;
  while (slot < slot_count() && read_slot(slot)) ++slot;
  return slot;
}

}  // namespace mnp::boot
