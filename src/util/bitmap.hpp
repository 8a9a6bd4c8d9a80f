// Fixed-capacity bitmap used for MNP's MissingVector / ForwardVector.
//
// The paper restricts a segment to at most 128 packets so that the missing
// vector is 16 bytes and fits inside a single radio packet. This class
// models exactly that: a compact bit vector with a byte-serializable
// representation and the set-algebra operations the protocol needs
// (union for ForwardVector accumulation, iteration for transmission order).
//
// Storage is two uint64 words so count/union/intersection/find_first_set
// compile to popcount/ctz instead of bit-at-a-time loops — these run
// inside every download-request merge and forward-vector scan. The wire
// format (little-bit-endian bytes) is unchanged: byte k of to_bytes()
// still holds bits 8k..8k+7.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mnp::util {

/// Compact bitmap over up to `kMaxBits` bits (128 = MNP's max segment size).
/// Bit semantics are defined by the caller; MNP uses 1 = "packet missing"
/// (MissingVector) or 1 = "packet must be forwarded" (ForwardVector).
class Bitmap {
 public:
  static constexpr std::size_t kMaxBits = 128;
  static constexpr std::size_t kMaxBytes = kMaxBits / 8;
  static constexpr std::size_t kWords = kMaxBits / 64;

  /// Empty bitmap (size 0). Non-explicit so message structs holding a
  /// Bitmap member stay aggregate-initializable with {}.
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all cleared.
  /// Precondition: size <= kMaxBits (clamped otherwise).
  explicit Bitmap(std::size_t size);

  /// Creates a bitmap of `size` bits, all set. This is how MNP initializes
  /// a MissingVector: every packet starts out missing.
  static Bitmap all_set(std::size_t size);

  std::size_t size() const { return size_; }
  std::size_t byte_size() const { return (size_ + 7) / 8; }

  // The redundant `i >= kMaxBits` arm restates the size_ <= kMaxBits
  // invariant where the optimizer can see it; without it GCC's
  // -Warray-bounds flags the words_ access when it inlines a call with a
  // provably out-of-range constant (the no-op path never reaches words_).
  bool test(std::size_t i) const {
    if (i >= size_ || i >= kMaxBits) return false;
    return (words_[i / 64] >> (i % 64)) & 1u;
  }
  void set(std::size_t i) {
    if (i >= size_ || i >= kMaxBits) return;
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void clear(std::size_t i) {
    if (i >= size_ || i >= kMaxBits) return;
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  void set_all();
  void clear_all() { words_.fill(0); }

  /// Number of set bits.
  std::size_t count() const;
  bool any() const { return count() > 0; }
  bool none() const { return count() == 0; }

  /// Index of the first set bit at or after `from`, or `size()` if none.
  std::size_t find_first_set(std::size_t from = 0) const;

  /// In-place union; used by the sender to merge requesters' missing
  /// vectors into its ForwardVector. Sizes must match.
  Bitmap& operator|=(const Bitmap& other);
  /// In-place intersection.
  Bitmap& operator&=(const Bitmap& other);

  friend Bitmap operator|(Bitmap a, const Bitmap& b) { return a |= b; }
  friend Bitmap operator&(Bitmap a, const Bitmap& b) { return a &= b; }
  bool operator==(const Bitmap& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Raw bytes (little-bit-endian within a byte), length byte_size().
  /// This is the on-air representation carried inside download requests.
  std::array<std::uint8_t, kMaxBytes> to_bytes() const;
  static Bitmap from_bytes(const std::array<std::uint8_t, kMaxBytes>& bytes,
                           std::size_t size);

  /// "101100..." debugging form, most significant bit = index 0.
  std::string to_string() const;

 private:
  /// Mask covering the low `bytes` bytes of one word (bytes in [0, 8]).
  static std::uint64_t byte_mask(std::size_t bytes) {
    return bytes >= 8 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (8 * bytes)) - 1;
  }
  /// Bytes of this bitmap's storage that land in word `w`.
  std::size_t bytes_in_word(std::size_t w) const {
    const std::size_t total = byte_size();
    return total > 8 * w ? (total - 8 * w > 8 ? 8 : total - 8 * w) : 0;
  }

  std::size_t size_ = 0;
  std::array<std::uint64_t, kWords> words_{};
};

/// Arbitrarily sized bitmap for the paper's *large segment* variant
/// (section 3.3): when pipelining is off, a segment may exceed 128 packets
/// and the receiver tracks loss in EEPROM instead of RAM. On the wire the
/// missing information still travels as 128-bit windows (`window`), which
/// the sender merges back with `merge_window`. Word-backed like Bitmap so
/// count and first-set scans are popcount/ctz over uint64 words.
class BigBitmap {
 public:
  /// Empty bitmap (size 0); see Bitmap() for why this is non-explicit.
  BigBitmap() = default;

  explicit BigBitmap(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  static BigBitmap all_set(std::size_t size) {
    BigBitmap b(size);
    b.set_all();
    return b;
  }

  /// Resizes to `size` bits, all cleared, reusing the word buffer: the
  /// same value as BigBitmap(size), without an allocation once the buffer
  /// has held that many words.
  void reset(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  std::size_t size() const { return size_; }
  bool test(std::size_t i) const {
    return i < size_ && ((words_[i / 64] >> (i % 64)) & 1u);
  }
  void set(std::size_t i) {
    if (i < size_) words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void clear(std::size_t i) {
    if (i < size_) words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  void set_all();
  void clear_all() { std::fill(words_.begin(), words_.end(), 0); }
  std::size_t count() const;
  bool none() const { return count() == 0; }
  bool any() const { return count() > 0; }
  std::size_t find_first_set(std::size_t from = 0) const;

  /// 128-bit window starting at `base` (bit i of the result = bit base+i).
  Bitmap window(std::size_t base) const;
  /// OR-merges a 128-bit window back in at `base`.
  void merge_window(std::size_t base, const Bitmap& w);

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mnp::util
