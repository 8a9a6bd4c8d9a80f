#include "net/codec.hpp"

#include <array>
#include <cstring>
#include <variant>

namespace mnp::net {

namespace {

// --- primitive writers/readers ---------------------------------------------
//
// One put/get overload per field type a message may declare (packet.hpp).

class Writer {
 public:
  void put(std::uint8_t v) { out_.push_back(v); }
  void put(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void put(std::uint32_t v) {
    put(static_cast<std::uint16_t>(v & 0xFFFF));
    put(static_cast<std::uint16_t>(v >> 16));
  }
  void put(bool v) { put(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void put(const util::Bitmap& b) {
    put(static_cast<std::uint8_t>(b.size()));
    const auto raw = b.to_bytes();
    out_.insert(out_.end(), raw.begin(), raw.end());
  }
  void put(const std::vector<std::uint8_t>& bytes) {
    put(static_cast<std::uint8_t>(bytes.size()));
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t>& out() { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked reads. Each get() accepts only what put() writes, so an
/// accepted frame re-encodes to the same bytes.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t length)
      : data_(data), size_(length) {}

  bool get(std::uint8_t& v) {
    if (pos_ + 1 > size_) return false;
    v = data_[pos_++];
    return true;
  }
  bool get(std::uint16_t& v) {
    if (pos_ + 2 > size_) return false;
    v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool get(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    if (!get(lo) || !get(hi)) return false;
    v = static_cast<std::uint32_t>(lo) | (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }
  bool get(bool& v) {
    std::uint8_t byte = 0;
    if (!get(byte) || byte > 1) return false;
    v = byte == 1;
    return true;
  }
  bool get(util::Bitmap& b) {
    std::uint8_t size = 0;
    if (!get(size) || size > util::Bitmap::kMaxBits) return false;
    std::array<std::uint8_t, util::Bitmap::kMaxBytes> raw{};
    if (pos_ + raw.size() > size_) return false;
    std::memcpy(raw.data(), data_ + pos_, raw.size());
    pos_ += raw.size();
    b = util::Bitmap::from_bytes(raw, size);
    return b.to_bytes() == raw;  // no bit set past `size`
  }
  bool get(std::vector<std::uint8_t>& bytes) {
    std::uint8_t n = 0;
    if (!get(n) || pos_ + n > size_) return false;
    bytes.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Makes `out` an M and reads its fields in wire order.
template <typename M>
bool decode_as(Reader& r, Payload& out) {
  M& m = out.emplace<M>();
  return M::fields(m, [&r](auto&... field) { return (r.get(field) && ...); });
}

/// One decoder per Payload alternative, indexed by the wire type byte.
template <typename Variant>
struct Decoders;
template <typename... M>
struct Decoders<std::variant<M...>> {
  static constexpr std::array<bool (*)(Reader&, Payload&), sizeof...(M)>
      kByType{&decode_as<M>...};
};

}  // namespace

std::uint16_t crc16(const std::uint8_t* data, std::size_t length) {
  // CRC-16-CCITT (0x1021), init 0xFFFF.
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < length; ++i) {
    crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(data[i]) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000u)
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

std::vector<std::uint8_t> encode(const Packet& pkt) {
  Writer w;
  w.put(pkt.logical_dest());
  w.put(pkt.src);
  w.put(static_cast<std::uint8_t>(pkt.type()));
  std::visit(
      [&w](const auto& m) {
        m.fields(m, [&w](const auto&... field) { (w.put(field), ...); });
      },
      pkt.payload);
  const std::uint16_t crc = crc16(w.out().data(), w.out().size());
  w.put(crc);
  return std::move(w.out());
}

std::optional<Packet> decode(const std::uint8_t* frame, std::size_t length) {
  if (length < 2 + 2 + 1 + 2) return std::nullopt;
  const std::uint16_t expected = static_cast<std::uint16_t>(
      frame[length - 2] | (frame[length - 1] << 8));
  if (crc16(frame, length - 2) != expected) return std::nullopt;

  // Parse the body in place (everything before the CRC trailer).
  Reader r(frame, length - 2);
  std::uint16_t dest = 0, src = 0;
  std::uint8_t type = 0;
  if (!r.get(dest) || !r.get(src) || !r.get(type)) return std::nullopt;
  if (type >= kPacketTypeCount) return std::nullopt;
  Packet pkt;
  pkt.src = src;
  if (!Decoders<Payload>::kByType[type](r, pkt.payload)) return std::nullopt;
  if (r.remaining() != 0) return std::nullopt;  // trailing garbage
  // The header repeats the payload's own dest (broadcast when it has
  // none); a frame where the two disagree is not one encode() writes.
  if (dest != pkt.logical_dest()) return std::nullopt;
  return pkt;
}

}  // namespace mnp::net
