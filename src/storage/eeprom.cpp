#include "storage/eeprom.hpp"

#include <algorithm>

namespace mnp::storage {
namespace {

/// Sets the write marks of bytes [first, first + n) within one page's
/// mark words; returns true when any of them was already set.
bool mark_written(std::uint64_t* words, std::size_t first, std::size_t n) {
  bool seen = false;
  const std::size_t end = first + n;
  for (std::size_t bit = first; bit < end;) {
    const std::size_t word = bit / 64;
    const std::size_t lo = bit % 64;
    const std::size_t hi = std::min<std::size_t>(64, end - word * 64);
    const std::uint64_t mask =
        hi - lo == 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << (hi - lo)) - 1) << lo;
    seen = seen || (words[word] & mask) != 0;
    words[word] |= mask;
    bit = word * 64 + hi;
  }
  return seen;
}

}  // namespace

Eeprom::Eeprom(std::size_t capacity, energy::EnergyMeter* meter)
    : capacity_(capacity),
      pages_((capacity + kPageBytes - 1) / kPageBytes),
      meter_(meter) {}

bool Eeprom::write(std::size_t offset, std::span<const std::uint8_t> bytes) {
  if (!fits(offset, bytes.size())) return false;
  bool overlapped = false;
  const std::uint8_t* src = bytes.data();
  for (std::size_t done = 0; done < bytes.size();) {
    const std::size_t pos = offset + done;
    const std::size_t in_page = pos % kPageBytes;
    const std::size_t run = std::min(kPageBytes - in_page, bytes.size() - done);
    auto& page = pages_[pos / kPageBytes];
    if (!page) page = std::make_unique<Page>();
    overlapped = mark_written(page->written, in_page, run) || overlapped;
    // std::copy, not memcpy: g++ expands a page-bounded memcpy as rep movsq.
    std::copy(src + done, src + done + run, page->data + in_page);
    done += run;
  }
  if (track_write_once_ && overlapped) ++double_writes_;
  ++total_writes_;
  bytes_written_ += bytes.size();
  if (meter_) meter_->count_eeprom_write(bytes.size());
  return true;
}

bool Eeprom::read(std::size_t offset, std::span<std::uint8_t> out) {
  if (!fits(offset, out.size())) return false;
  ++total_reads_;
  if (meter_) meter_->count_eeprom_read(out.size());
  std::uint8_t* dst = out.data();
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t pos = offset + done;
    const std::size_t in_page = pos % kPageBytes;
    const std::size_t run = std::min(kPageBytes - in_page, out.size() - done);
    const Page* page = pages_[pos / kPageBytes].get();
    // std::copy, not memcpy: see write().
    if (page) {
      std::copy(page->data + in_page, page->data + in_page + run, dst + done);
    } else {
      std::fill(dst + done, dst + done + run, std::uint8_t{0});
    }
    done += run;
  }
  return true;
}

std::vector<std::uint8_t> Eeprom::read(std::size_t offset, std::size_t length) {
  std::vector<std::uint8_t> out;
  read_into(offset, length, out);
  return out;
}

void Eeprom::read_into(std::size_t offset, std::size_t length,
                       std::vector<std::uint8_t>& out) {
  out.clear();
  if (!fits(offset, length)) return;
  out.resize(length);
  if (!read(offset, out)) out.clear();
}

void Eeprom::erase() {
  for (auto& page : pages_) page.reset();
}

std::size_t Eeprom::resident_pages() const {
  return static_cast<std::size_t>(
      std::count_if(pages_.begin(), pages_.end(),
                    [](const auto& page) { return page != nullptr; }));
}

}  // namespace mnp::storage
