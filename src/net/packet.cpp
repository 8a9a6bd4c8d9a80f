#include "net/packet.hpp"

#include <type_traits>

namespace mnp::net {
namespace {

/// Modelled on-air bytes of one field. A bitmap's size byte and a byte
/// vector's length byte are not modelled, so the codec's frame is longer
/// by one byte per such field (codec.hpp states the exact relation).
template <typename T>
std::size_t modelled_bytes(const T& field) {
  if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    return field.size();
  } else if constexpr (std::is_same_v<T, util::Bitmap>) {
    return util::Bitmap::kMaxBytes;
  } else {
    static_assert(std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
                      std::is_same_v<T, std::uint16_t> ||
                      std::is_same_v<T, std::uint32_t>,
                  "a wire field is a bool, uint8/16/32, Bitmap or byte vector");
    return std::is_same_v<T, bool> ? 1 : sizeof(T);
  }
}

}  // namespace

NodeId Packet::logical_dest() const {
  return std::visit(
      [](const auto& m) -> NodeId {
        if constexpr (requires { m.dest; }) {
          return m.dest;
        } else {
          return kBroadcastId;
        }
      },
      payload);
}

std::size_t Packet::wire_bytes() const {
  return kFramingBytes +
         std::visit(
             [](const auto& m) {
               return m.fields(m, [](const auto&... field) {
                 return (modelled_bytes(field) + ...);
               });
             },
             payload);
}

}  // namespace mnp::net
