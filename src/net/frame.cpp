#include "net/frame.hpp"

#include <type_traits>
#include <utility>
#include <variant>

namespace mnp::net {
namespace detail {

FramePoolState::~FramePoolState() {
  for (FrameNode* node : free_nodes) delete node;
}

namespace {

/// Steals the payload buffer's capacity out of a dying frame so the next
/// acquire_payload() reuses it instead of allocating. Every message type
/// with a `payload` byte vector qualifies, so a new one cannot be missed.
void reclaim_payload(FramePoolState& state, Packet& pkt) {
  std::visit(
      [&state](auto& msg) {
        if constexpr (CarriesPayload<std::remove_cvref_t<decltype(msg)>>) {
          if (msg.payload.capacity() > 0) {
            msg.payload.clear();
            state.free_payloads.push_back(std::move(msg.payload));
          }
        }
      },
      pkt.payload);
}

}  // namespace

void release_frame(FrameNode* node) {
  if (--node->refs != 0) return;
  // Keep the pool state alive past the point where the node lets go of it;
  // this frame may be the very last owner.
  std::shared_ptr<FramePoolState> keep = std::move(node->home);
  node->home.reset();
  --keep->live;
  reclaim_payload(*keep, node->pkt);
  node->pkt = Packet{};
  keep->free_nodes.push_back(node);
}

}  // namespace detail

FramePtr FramePool::adopt(Packet&& pkt) {
  detail::FrameNode* node = nullptr;
  if (!state_->free_nodes.empty()) {
    node = state_->free_nodes.back();
    state_->free_nodes.pop_back();
  } else {
    node = new detail::FrameNode();
    ++state_->node_allocs;
  }
  node->pkt = std::move(pkt);
  node->home = state_;
  ++state_->live;
  return FramePtr(node);
}

std::vector<std::uint8_t> FramePool::acquire_payload() {
  if (!state_->free_payloads.empty()) {
    std::vector<std::uint8_t> buf = std::move(state_->free_payloads.back());
    state_->free_payloads.pop_back();
    return buf;
  }
  ++state_->payload_allocs;
  return {};
}

}  // namespace mnp::net
