#include "diff/delta.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace mnp::diff {

namespace {

std::uint64_t block_hash(const std::uint8_t* data, std::size_t len) {
  // FNV-1a: cheap and adequate (matches are byte-verified anyway).
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

bool get_u32(const std::vector<std::uint8_t>& in, std::size_t& pos,
             std::uint32_t& v) {
  if (pos + 4 > in.size()) return false;
  v = static_cast<std::uint32_t>(in[pos]) |
      (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
      (static_cast<std::uint32_t>(in[pos + 2]) << 16) |
      (static_cast<std::uint32_t>(in[pos + 3]) << 24);
  pos += 4;
  return true;
}

}  // namespace

void Delta::append_copy(std::uint32_t old_offset, std::uint32_t length) {
  if (length == 0) return;
  // Coalesce with a preceding adjacent copy.
  if (!ops_.empty()) {
    if (auto* prev = std::get_if<CopyOp>(&ops_.back())) {
      if (prev->old_offset + prev->length == old_offset) {
        prev->length += length;
        return;
      }
    }
  }
  ops_.emplace_back(std::in_place_type<CopyOp>, old_offset, length);
}

void Delta::append_literal(const std::uint8_t* data, std::size_t length) {
  if (length == 0) return;
  if (!ops_.empty()) {
    if (auto* prev = std::get_if<LiteralOp>(&ops_.back())) {
      prev->bytes.insert(prev->bytes.end(), data, data + length);
      return;
    }
  }
  LiteralOp op;
  op.bytes.assign(data, data + length);
  ops_.push_back(std::move(op));
}

Delta Delta::compute(const std::vector<std::uint8_t>& old_image,
                     const std::vector<std::uint8_t>& new_image,
                     std::size_t block_size) {
  Delta delta;
  if (block_size == 0) block_size = 32;
  // Index every aligned old block by hash (multimap: hashes may collide).
  std::unordered_multimap<std::uint64_t, std::size_t> index;
  if (old_image.size() >= block_size) {
    for (std::size_t off = 0; off + block_size <= old_image.size();
         off += block_size) {
      index.emplace(block_hash(old_image.data() + off, block_size), off);
    }
  }

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos + block_size <= new_image.size()) {
    const std::uint64_t h = block_hash(new_image.data() + pos, block_size);
    auto [lo, hi] = index.equal_range(h);
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    for (auto it = lo; it != hi; ++it) {
      const std::size_t off = it->second;
      if (std::memcmp(old_image.data() + off, new_image.data() + pos,
                      block_size) != 0) {
        continue;  // hash collision
      }
      // Extend the verified match as far as both images agree.
      std::size_t len = block_size;
      while (off + len < old_image.size() && pos + len < new_image.size() &&
             old_image[off + len] == new_image[pos + len]) {
        ++len;
      }
      // Deterministic tie-break: the unordered_multimap visits equal-hash
      // chains in an unspecified order, so equal-length candidates must
      // resolve by offset or the emitted script would vary across
      // standard libraries. Longest match wins, then lowest old offset.
      if (len > best_len || (len == best_len && len > 0 && off < best_off)) {
        best_len = len;
        best_off = off;
      }
    }
    if (best_len >= block_size) {
      delta.append_literal(new_image.data() + literal_start,
                           pos - literal_start);
      delta.append_copy(static_cast<std::uint32_t>(best_off),
                        static_cast<std::uint32_t>(best_len));
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  delta.append_literal(new_image.data() + literal_start,
                       new_image.size() - literal_start);
  return delta;
}

std::vector<std::uint8_t> Delta::apply(
    const std::vector<std::uint8_t>& old_image) const {
  std::vector<std::uint8_t> out;
  for (const Op& op : ops_) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) {
      if (copy->old_offset > old_image.size() ||
          copy->length > old_image.size() - copy->old_offset) {
        return {};  // reads outside the installed image: corrupt delta
      }
      out.insert(out.end(), old_image.begin() + copy->old_offset,
                 old_image.begin() + copy->old_offset + copy->length);
    } else {
      const auto& lit = std::get<LiteralOp>(op);
      out.insert(out.end(), lit.bytes.begin(), lit.bytes.end());
    }
  }
  return out;
}

std::vector<std::uint8_t> Delta::serialize() const {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(ops_.size()));
  for (const Op& op : ops_) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) {
      out.push_back('C');
      put_u32(out, copy->old_offset);
      put_u32(out, copy->length);
    } else {
      const auto& lit = std::get<LiteralOp>(op);
      out.push_back('L');
      put_u32(out, static_cast<std::uint32_t>(lit.bytes.size()));
      out.insert(out.end(), lit.bytes.begin(), lit.bytes.end());
    }
  }
  return out;
}

std::optional<Delta> Delta::parse(const std::vector<std::uint8_t>& bytes) {
  Delta delta;
  std::size_t pos = 0;
  std::uint32_t count = 0;
  if (!get_u32(bytes, pos, count)) return std::nullopt;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos >= bytes.size()) return std::nullopt;
    const std::uint8_t tag = bytes[pos++];
    if (tag == 'C') {
      std::uint32_t offset = 0, length = 0;
      if (!get_u32(bytes, pos, offset) || !get_u32(bytes, pos, length)) {
        return std::nullopt;
      }
      delta.ops_.emplace_back(std::in_place_type<CopyOp>, offset, length);
    } else if (tag == 'L') {
      std::uint32_t length = 0;
      if (!get_u32(bytes, pos, length)) return std::nullopt;
      if (pos + length > bytes.size()) return std::nullopt;
      LiteralOp op;
      op.bytes.assign(bytes.begin() + static_cast<long>(pos),
                      bytes.begin() + static_cast<long>(pos + length));
      delta.ops_.push_back(std::move(op));
      pos += length;
    } else {
      return std::nullopt;
    }
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing garbage
  return delta;
}

std::size_t Delta::serialized_size() const {
  std::size_t size = 4;
  for (const Op& op : ops_) {
    if (std::holds_alternative<CopyOp>(op)) {
      size += 1 + 8;
    } else {
      size += 1 + 4 + std::get<LiteralOp>(op).bytes.size();
    }
  }
  return size;
}

std::size_t Delta::copied_bytes() const {
  std::size_t n = 0;
  for (const Op& op : ops_) {
    if (const auto* copy = std::get_if<CopyOp>(&op)) n += copy->length;
  }
  return n;
}

std::size_t Delta::literal_bytes() const {
  std::size_t n = 0;
  for (const Op& op : ops_) {
    if (const auto* lit = std::get_if<LiteralOp>(&op)) n += lit->bytes.size();
  }
  return n;
}

}  // namespace mnp::diff
