#include "storage/eeprom.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mnp::storage {
namespace {

/// Sets the bits of [first, first + n) within one page's mark words;
/// returns how many of them were not set before.
std::size_t mark_written(std::uint64_t* words, std::size_t first,
                         std::size_t n) {
  std::size_t fresh = 0;
  const std::size_t end = first + n;
  for (std::size_t bit = first; bit < end;) {
    const std::size_t word = bit / 64;
    const std::size_t lo = bit % 64;
    const std::size_t hi = std::min<std::size_t>(64, end - word * 64);
    const std::uint64_t mask =
        hi - lo == 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << (hi - lo)) - 1) << lo;
    fresh += static_cast<std::size_t>(std::popcount(mask & ~words[word]));
    words[word] |= mask;
    bit = word * 64 + hi;
  }
  return fresh;
}

/// Splits [first, first + n) into maximal runs of bits that are all set or
/// all clear in `words`, and calls f(run_first, run_n, set) on each in
/// order: a word at a time, never a bit at a time.
template <typename F>
void for_each_run(const std::uint64_t* words, std::size_t first,
                  std::size_t n, F&& f) {
  const std::size_t end = first + n;
  for (std::size_t at = first; at < end;) {
    const bool set = (words[at / 64] >> (at % 64)) & 1;
    std::size_t stop = at;
    while (stop < end) {
      const std::size_t shift = stop % 64;
      const std::uint64_t word = set ? words[stop / 64] : ~words[stop / 64];
      const std::size_t len =
          static_cast<std::size_t>(std::countr_one(word >> shift));
      stop += len;
      if (len < 64 - shift) break;  // the run ends inside this word
    }
    stop = std::min(stop, end);
    f(at, stop - at, set);
    at = stop;
  }
}

}  // namespace

Eeprom::Eeprom(std::size_t capacity, energy::EnergyMeter* meter,
               PageStore* store)
    : capacity_(capacity),
      page_((capacity + kPageBytes - 1) / kPageBytes, kUntouched),
      meter_(meter),
      store_(store) {
  assert(page_.size() < kFull);
}

Eeprom::~Eeprom() { erase(); }

bool Eeprom::write(std::size_t offset, std::span<const std::uint8_t> bytes) {
  if (!fits(offset, bytes.size())) return false;
  bool overlapped = false;
  for (std::size_t done = 0; done < bytes.size();) {
    const std::size_t pos = offset + done;
    const std::size_t in_page = pos % kPageBytes;
    const std::size_t run = std::min(kPageBytes - in_page, bytes.size() - done);
    const std::size_t fresh =
        write_run(pos / kPageBytes, in_page, bytes.data() + done, run);
    overlapped = overlapped || fresh != run;
    done += run;
  }
  if (track_write_once_ && overlapped) ++double_writes_;
  ++total_writes_;
  bytes_written_ += bytes.size();
  if (meter_) meter_->count_eeprom_write(bytes.size());
  return true;
}

std::size_t Eeprom::write_run(std::size_t index, std::size_t first,
                              const std::uint8_t* src, std::size_t n) {
  if (shares(index)) {
    const PageStore::Page& copy = store_->define(index, first, src, n);
    const Block* held = block_at(index);
    if (!(held && held->own) &&
        std::equal(src, src + n, copy.data + first)) {
      return mark_run(index, first, n);
    }
  }
  Block& block = own_block(index);
  const std::size_t fresh = mark_written(block.written, first, n);
  block.marked += fresh;
  // std::copy, not memcpy: g++ expands a page-bounded memcpy as rep movsq.
  std::copy(src, src + n, block.own.get() + first);
  return fresh;
}

std::size_t Eeprom::mark_run(std::size_t index, std::size_t first,
                             std::size_t n) {
  if (page_[index] == kFull) return 0;
  Block* block = block_at(index);
  if (block == nullptr) {
    block = &new_block(index);
    store_->marks_.add();
  }
  const std::size_t fresh = mark_written(block->written, first, n);
  block->marked += fresh;
  if (block->marked == kPageBytes) {
    // Every byte equals the copy: read it whole, with no marks kept.
    slot(page_[index] - 1u).reset();
    page_[index] = kFull;
    store_->marks_.remove();
  }
  return fresh;
}

Eeprom::Block* Eeprom::block_at(std::size_t index) const {
  const std::uint16_t state = page_[index];
  if (state == kUntouched || state == kFull) return nullptr;
  return slot(state - 1u).get();
}

Eeprom::Block& Eeprom::new_block(std::size_t index) {
  std::size_t s = 0;
  while (s < slots() && slot(s) != nullptr) ++s;
  if (s == slots()) {
    // Only reached past the inline slots; one reservation covers a Block
    // for every page, so the list never grows again.
    if (more_blocks_.empty()) {
      more_blocks_.reserve(page_.size() - kInlineBlocks);
    }
    more_blocks_.emplace_back();
  }
  std::unique_ptr<Block>& block = slot(s);
  block = std::make_unique<Block>();
  page_[index] = static_cast<std::uint16_t>(s + 1);
  return *block;
}

Eeprom::Block& Eeprom::own_block(std::size_t index) {
  const bool full = page_[index] == kFull;
  Block* block = block_at(index);
  if (block && block->own) return *block;
  if (block) store_->marks_.remove();  // marks only: a shared index
  if (block == nullptr) {
    block = &new_block(index);
    if (full) {
      std::fill(std::begin(block->written), std::end(block->written),
                ~std::uint64_t{0});
      block->marked = kPageBytes;
    }
  }
  block->own = std::make_unique<std::uint8_t[]>(kPageBytes);  // zeroed
  if (block->marked != 0) {
    // Copy-on-write: the bytes this page marked come from the network's
    // copy, which stays as it is for every other holder.
    const std::uint8_t* copy = store_->pages_[index]->data;
    for_each_run(block->written, 0, kPageBytes,
                 [&](std::size_t at, std::size_t len, bool marked) {
                   if (marked) {
                     std::copy(copy + at, copy + at + len,
                               block->own.get() + at);
                   }
                 });
  }
  if (store_) store_->own_.add();
  return *block;
}

const PageStore::Page& PageStore::define(std::size_t index,
                                         std::size_t first,
                                         const std::uint8_t* src,
                                         std::size_t n) {
  std::unique_ptr<Page>& page = pages_[index];
  if (!page) {
    page = std::make_unique<Page>();
    ++pages_held_;
  }
  for_each_run(page->defined, first, n,
               [&](std::size_t at, std::size_t len, bool defined) {
                 if (!defined) {
                   const std::uint8_t* from = src + (at - first);
                   std::copy(from, from + len, page->data + at);
                 }
               });
  mark_written(page->defined, first, n);
  return *page;
}

void Eeprom::read_run(std::size_t index, std::size_t first,
                      std::uint8_t* dst, std::size_t n) const {
  const std::uint16_t state = page_[index];
  if (state == kUntouched) {
    std::fill(dst, dst + n, std::uint8_t{0});
    return;
  }
  const Block* block = block_at(index);
  if (block && block->own) {
    // std::copy, not memcpy: see write_run().
    std::copy(block->own.get() + first, block->own.get() + first + n, dst);
    return;
  }
  const std::uint8_t* copy = store_->pages_[index]->data;
  if (state == kFull) {
    std::copy(copy + first, copy + first + n, dst);
    return;
  }
  for_each_run(block->written, first, n,
               [&](std::size_t at, std::size_t len, bool marked) {
                 std::uint8_t* to = dst + (at - first);
                 if (marked) {
                   std::copy(copy + at, copy + at + len, to);
                 } else {
                   std::fill(to, to + len, std::uint8_t{0});
                 }
               });
}

bool Eeprom::read(std::size_t offset, std::span<std::uint8_t> out) {
  if (!fits(offset, out.size())) return false;
  ++total_reads_;
  if (meter_) meter_->count_eeprom_read(out.size());
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t pos = offset + done;
    const std::size_t in_page = pos % kPageBytes;
    const std::size_t run = std::min(kPageBytes - in_page, out.size() - done);
    read_run(pos / kPageBytes, in_page, out.data() + done, run);
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
  for (std::size_t s = 0; s < slots(); ++s) {
    std::unique_ptr<Block>& block = slot(s);
    if (block && store_) {
      (block->own ? store_->own_ : store_->marks_).remove();
    }
    block.reset();
  }
  more_blocks_.clear();  // keeps its reservation
  std::fill(page_.begin(), page_.end(), kUntouched);
}

std::size_t Eeprom::resident_pages() const {
  return static_cast<std::size_t>(std::count_if(
      page_.begin(), page_.end(),
      [](std::uint16_t state) { return state != kUntouched; }));
}

std::size_t Eeprom::own_pages() const {
  std::size_t own = 0;
  for (std::size_t s = 0; s < slots(); ++s) {
    own += slot(s) && slot(s)->own ? 1 : 0;
  }
  return own;
}

}  // namespace mnp::storage
