#include "storage/eeprom.hpp"

#include <algorithm>
#include <bit>

namespace mnp::storage {
namespace {

/// Sets the write marks of bytes [first, first + n) within one page's
/// mark words; returns how many of them were not set before.
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

/// Number of non-null page pointers in `pages`.
template <typename Pages>
std::size_t held(const Pages& pages) {
  return static_cast<std::size_t>(
      std::count_if(pages.begin(), pages.end(),
                    [](const auto& page) { return page != nullptr; }));
}

}  // namespace

Eeprom::Eeprom(std::size_t capacity, energy::EnergyMeter* meter,
               PageStore* store)
    : capacity_(capacity),
      pages_((capacity + kPageBytes - 1) / kPageBytes),
      meter_(meter),
      store_(store) {}

bool Eeprom::write(std::size_t offset, std::span<const std::uint8_t> bytes) {
  if (!fits(offset, bytes.size())) return false;
  bool overlapped = false;
  const std::uint8_t* src = bytes.data();
  for (std::size_t done = 0; done < bytes.size();) {
    const std::size_t pos = offset + done;
    const std::size_t index = pos / kPageBytes;
    const std::size_t in_page = pos % kPageBytes;
    const std::size_t run = std::min(kPageBytes - in_page, bytes.size() - done);
    Page* page = pages_[index].get();
    if (!page) page = &own_page(index);
    const std::size_t fresh = mark_written(page->written, in_page, run);
    overlapped = overlapped || fresh != run;
    // std::copy, not memcpy: g++ expands a page-bounded memcpy as rep movsq.
    std::copy(src + done, src + done + run, page->data + in_page);
    page->marked += fresh;
    if (page->marked == kPageBytes && fresh != 0) offer(index);
    done += run;
  }
  if (track_write_once_ && overlapped) ++double_writes_;
  ++total_writes_;
  bytes_written_ += bytes.size();
  if (meter_) meter_->count_eeprom_write(bytes.size());
  return true;
}

Eeprom::Page& Eeprom::own_page(std::size_t index) {
  std::unique_ptr<Page>& page = pages_[index];
  if (shares(index)) {
    // Copy-on-write: the store's page, and so every other holder's bytes,
    // stay as they are.
    page = std::make_unique<Page>(*store_->pages_[index]);
    shared_.reset(index);
  } else {
    page = std::make_unique<Page>();
  }
  return *page;
}

void Eeprom::offer(std::size_t index) {
  if (store_ == nullptr || index >= kSharedPages) return;
  std::unique_ptr<Page>& held = store_->pages_[index];
  std::unique_ptr<Page>& page = pages_[index];
  if (!held) {
    held = std::move(page);  // the first page completed at this index
  } else if (std::equal(page->data, page->data + kPageBytes, held->data)) {
    page.reset();
  } else {
    return;  // different bytes: the page stays private
  }
  shared_.set(index);
}

const Eeprom::Page* Eeprom::page_at(std::size_t index) const {
  if (const Page* page = pages_[index].get()) return page;
  return shares(index) ? store_->pages_[index].get() : nullptr;
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
    const Page* page = page_at(pos / kPageBytes);
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
  shared_.reset();
}

std::size_t Eeprom::resident_pages() const {
  return private_pages() + shared_.count();
}

std::size_t Eeprom::private_pages() const { return held(pages_); }

std::size_t PageStore::pages() const { return held(pages_); }

}  // namespace mnp::storage
