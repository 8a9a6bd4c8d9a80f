// On-air packet representation.
//
// All protocols in this repository (MNP and the Deluge / MOAP / XNP /
// NCast baselines) exchange small TinyOS-style radio packets. A Packet is
// a value type: a typed payload variant plus addressing metadata.
//
// Each message struct is described once (DESIGN.md §7): its fields,
// `fields()`, which hands them to a callable in wire order, its type name
// `kName` and its Fig. 12 class `kClass`. Everything else derives from
// that description:
//  * the codec (net/codec.cpp) encodes each field by its C++ type:
//    uint8/16/32 at their width, little-endian; bool as one byte;
//    util::Bitmap as a size byte plus Bitmap::kMaxBytes raw bytes; a byte
//    vector as a length byte plus the bytes;
//  * wire_bytes(), from which the channel derives airtime at 19.2 kbps,
//    sums the same fields but leaves out the bitmap's size byte and the
//    vector's length byte;
//  * type() is the variant index, logical_dest() the `dest` field when a
//    message has one, and is_bulk_data() means "carries a code payload".
// Adding a message takes one struct, one Payload alternative and one
// PacketType enumerator.
//
// Physical transmission is always broadcast; `dest` is the *logical*
// destination some messages carry (e.g. MNP download requests are
// "destined" to one source but deliberately overheard by everyone — that
// overhearing is how MNP fights the hidden terminal problem).
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/bitmap.hpp"

namespace mnp::net {

using NodeId = std::uint16_t;
inline constexpr NodeId kBroadcastId = 0xFFFF;
inline constexpr NodeId kNoNode = 0xFFFE;

/// Message categories for the Fig.-12 per-minute timeline.
enum class MsgClass : std::size_t { kAdvertisement = 0, kRequest = 1, kData = 2, kOther = 3 };

// ---------------------------------------------------------------------------
// MNP messages (paper section 3)
// ---------------------------------------------------------------------------

/// Advertisement: announces a program (+ the segment currently offered)
/// and the advertiser's requester count, which drives sender selection.
struct AdvertisementMsg {
  std::uint16_t program_id = 0;
  std::uint32_t program_bytes = 0;     // total image size in bytes
  std::uint16_t program_segments = 0;  // total size, in segments
  std::uint16_t seg_id = 0;            // segment being advertised (1-based)
  std::uint8_t req_ctr = 0;            // # distinct requesters so far

  static constexpr const char* kName = "Advertisement";
  static constexpr MsgClass kClass = MsgClass::kAdvertisement;
  static auto fields(auto& m, auto&& f) {
    return f(m.program_id, m.program_bytes, m.program_segments, m.seg_id,
             m.req_ctr);
  }
};

/// Download request: destined to one advertiser but broadcast so third
/// parties learn (source, ReqCtr) pairs; carries the requester's
/// MissingVector so the source can build its ForwardVector.
///
/// Large-segment variant (section 3.3): when the segment exceeds 128
/// packets the requester ships one 128-bit *window* of its EEPROM-backed
/// missing set, anchored at `window_base`; `request_all` short-circuits
/// the common everything-missing case.
struct DownloadRequestMsg {
  NodeId dest = kBroadcastId;     // the advertiser this request is for
  std::uint16_t program_id = 0;   // program the segment belongs to
  std::uint16_t seg_id = 0;       // segment the requester needs next
  std::uint8_t req_ctr_echo = 0;  // advertiser's ReqCtr, relayed verbatim
  std::uint16_t window_base = 0;  // first packet the window refers to
  bool request_all = false;       // "I have nothing of this segment"
  util::Bitmap missing;           // 128-bit missing window at window_base

  static constexpr const char* kName = "DownloadRequest";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) {
    return f(m.dest, m.program_id, m.seg_id, m.req_ctr_echo, m.window_base,
             m.request_all, m.missing);
  }
};

/// StartDownload: the selected sender announces it is about to stream a
/// segment; receivers expecting this segment set the sender as parent.
struct StartDownloadMsg {
  std::uint16_t program_id = 0;
  std::uint16_t seg_id = 0;
  std::uint16_t packet_count = 0;  // packets in this segment

  static constexpr const char* kName = "StartDownload";
  static constexpr MsgClass kClass = MsgClass::kOther;
  static auto fields(auto& m, auto&& f) {
    return f(m.program_id, m.seg_id, m.packet_count);
  }
};

/// One code packet. `pkt_id` is unique within the segment (16 bits to
/// cover the basic protocol's large segments).
struct DataMsg {
  std::uint16_t program_id = 0;
  std::uint16_t seg_id = 0;
  std::uint16_t pkt_id = 0;
  std::vector<std::uint8_t> payload;

  static constexpr const char* kName = "Data";
  static constexpr MsgClass kClass = MsgClass::kData;
  static auto fields(auto& m, auto&& f) {
    return f(m.program_id, m.seg_id, m.pkt_id, m.payload);
  }
};

/// EndDownload: sender finished streaming the requested packets.
struct EndDownloadMsg {
  std::uint16_t seg_id = 0;

  static constexpr const char* kName = "EndDownload";
  static constexpr MsgClass kClass = MsgClass::kOther;
  static auto fields(auto& m, auto&& f) { return f(m.seg_id); }
};

/// Query: sender polls its children for residual loss (optional phase).
struct QueryMsg {
  std::uint16_t seg_id = 0;

  static constexpr const char* kName = "Query";
  static constexpr MsgClass kClass = MsgClass::kOther;
  static auto fields(auto& m, auto&& f) { return f(m.seg_id); }
};

/// Repair request: child asks its parent for one missing packet (update
/// phase requests packets one at a time, per the paper's state machine).
struct RepairRequestMsg {
  NodeId dest = kBroadcastId;  // the parent
  std::uint16_t seg_id = 0;
  std::uint16_t pkt_id = 0;

  static constexpr const char* kName = "RepairRequest";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) {
    return f(m.dest, m.seg_id, m.pkt_id);
  }
};

// ---------------------------------------------------------------------------
// Deluge baseline messages (Hui & Culler, SenSys'04)
// ---------------------------------------------------------------------------

/// Trickle-style summary: version + number of complete pages. Also carries
/// the object profile (total pages / bytes), which real Deluge ships in a
/// separate profile message.
struct DelugeSummaryMsg {
  std::uint16_t version = 0;
  std::uint16_t total_pages = 0;
  std::uint16_t complete_pages = 0;
  std::uint32_t program_bytes = 0;

  static constexpr const char* kName = "DelugeSummary";
  static constexpr MsgClass kClass = MsgClass::kAdvertisement;
  static auto fields(auto& m, auto&& f) {
    return f(m.version, m.total_pages, m.complete_pages, m.program_bytes);
  }
};

/// Page request (NACK) with the bit vector of needed packets.
struct DelugeRequestMsg {
  NodeId dest = kBroadcastId;
  std::uint16_t page = 0;  // 1-based
  util::Bitmap missing;

  static constexpr const char* kName = "DelugeRequest";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) {
    return f(m.dest, m.page, m.missing);
  }
};

struct DelugeDataMsg {
  std::uint16_t version = 0;
  std::uint16_t page = 0;
  std::uint8_t pkt_id = 0;
  std::vector<std::uint8_t> payload;

  static constexpr const char* kName = "DelugeData";
  static constexpr MsgClass kClass = MsgClass::kData;
  static auto fields(auto& m, auto&& f) {
    return f(m.version, m.page, m.pkt_id, m.payload);
  }
};

// ---------------------------------------------------------------------------
// MOAP baseline messages (Stathopoulos et al.)
// ---------------------------------------------------------------------------

struct MoapPublishMsg {
  std::uint16_t version = 0;
  std::uint16_t total_packets = 0;
  std::uint32_t program_bytes = 0;

  static constexpr const char* kName = "MoapPublish";
  static constexpr MsgClass kClass = MsgClass::kAdvertisement;
  static auto fields(auto& m, auto&& f) {
    return f(m.version, m.total_packets, m.program_bytes);
  }
};

struct MoapSubscribeMsg {
  NodeId dest = kBroadcastId;  // publisher being subscribed to

  static constexpr const char* kName = "MoapSubscribe";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) { return f(m.dest); }
};

struct MoapDataMsg {
  std::uint16_t version = 0;
  std::uint16_t pkt_id = 0;  // linear index over the whole image
  std::vector<std::uint8_t> payload;

  static constexpr const char* kName = "MoapData";
  static constexpr MsgClass kClass = MsgClass::kData;
  static auto fields(auto& m, auto&& f) {
    return f(m.version, m.pkt_id, m.payload);
  }
};

/// Unicast retransmission request for one packet (sliding-window NACK).
struct MoapNackMsg {
  NodeId dest = kBroadcastId;
  std::uint16_t pkt_id = 0;

  static constexpr const char* kName = "MoapNack";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) { return f(m.dest, m.pkt_id); }
};

// ---------------------------------------------------------------------------
// XNP baseline messages (TinyOS single-hop reprogramming)
// ---------------------------------------------------------------------------

struct XnpDataMsg {
  std::uint16_t pkt_id = 0;
  std::uint16_t total_packets = 0;
  std::vector<std::uint8_t> payload;

  static constexpr const char* kName = "XnpData";
  static constexpr MsgClass kClass = MsgClass::kData;
  static auto fields(auto& m, auto&& f) {
    return f(m.pkt_id, m.total_packets, m.payload);
  }
};

struct XnpQueryMsg {
  std::uint16_t total_packets = 0;

  static constexpr const char* kName = "XnpQuery";
  static constexpr MsgClass kClass = MsgClass::kOther;
  static auto fields(auto& m, auto&& f) { return f(m.total_packets); }
};

struct XnpFixRequestMsg {
  std::uint16_t pkt_id = 0;

  static constexpr const char* kName = "XnpFixRequest";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) { return f(m.pkt_id); }
};

// ---------------------------------------------------------------------------
// NCast baseline messages (rateless RLNC dissemination, DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Advertisement: program geometry plus decode progress — complete
/// generations and working-generation rank. Rank, not a missing bitmap,
/// is the advertised currency: any `gen_size` independent coded packets
/// rebuild a generation, so "how many more" is all a peer needs to know.
struct NcastAdvMsg {
  std::uint16_t program_id = 0;
  std::uint32_t program_bytes = 0;
  std::uint16_t total_gens = 0;
  std::uint16_t complete_gens = 0;
  std::uint8_t gen_size = 0;  // source packets per generation (k)
  std::uint8_t cur_rank = 0;  // decoder rank of generation complete_gens+1

  static constexpr const char* kName = "NcastAdv";
  static constexpr MsgClass kClass = MsgClass::kAdvertisement;
  static auto fields(auto& m, auto&& f) {
    return f(m.program_id, m.program_bytes, m.total_gens, m.complete_gens,
             m.gen_size, m.cur_rank);
  }
};

/// Request: "stream generation `gen`; my decoder rank is `rank`". The
/// server sizes its burst from the rank deficit — there is no per-packet
/// bookkeeping to echo back.
struct NcastReqMsg {
  NodeId dest = kBroadcastId;  // the advertiser this request is for
  std::uint16_t gen = 0;       // 1-based generation id
  std::uint8_t rank = 0;

  static constexpr const char* kName = "NcastRequest";
  static constexpr MsgClass kClass = MsgClass::kRequest;
  static auto fields(auto& m, auto&& f) { return f(m.dest, m.gen, m.rank); }
};

/// One coded packet: a random linear combination of the generation's k
/// source packets. The coefficient vector is not shipped — both sides
/// expand (gen, coeff_seed) through the same deterministic generator
/// (ncast_node.hpp), so the wire overhead is 2 bytes regardless of k.
struct NcastCodedMsg {
  std::uint16_t gen = 0;
  std::uint16_t coeff_seed = 0;
  std::vector<std::uint8_t> payload;  // coded symbol, full payload length

  static constexpr const char* kName = "NcastCoded";
  static constexpr MsgClass kClass = MsgClass::kData;
  static auto fields(auto& m, auto&& f) {
    return f(m.gen, m.coeff_seed, m.payload);
  }
};

// ---------------------------------------------------------------------------

/// A message that carries code bytes in a `payload` vector: bulk data to
/// the channel's concurrent-sender monitor and to message accounting, and
/// a buffer the frame pool takes back when the frame dies.
template <typename M>
concept CarriesPayload = requires(M& m) {
  { m.payload } -> std::same_as<std::vector<std::uint8_t>&>;
};

/// The wire type byte and the NodeStats::sent index: one enumerator per
/// Payload alternative, in the same order.
enum class PacketType : std::uint8_t {
  kAdvertisement,
  kDownloadRequest,
  kStartDownload,
  kData,
  kEndDownload,
  kQuery,
  kRepairRequest,
  kDelugeSummary,
  kDelugeRequest,
  kDelugeData,
  kMoapPublish,
  kMoapSubscribe,
  kMoapData,
  kMoapNack,
  kXnpData,
  kXnpQuery,
  kXnpFixRequest,
  kNcastAdv,
  kNcastRequest,
  kNcastCoded,
};

/// Number of PacketType values: flat per-type tables index by the enum.
inline constexpr std::size_t kPacketTypeCount =
    static_cast<std::size_t>(PacketType::kNcastCoded) + 1;

using Payload =
    std::variant<AdvertisementMsg, DownloadRequestMsg, StartDownloadMsg,
                 DataMsg, EndDownloadMsg, QueryMsg, RepairRequestMsg,
                 DelugeSummaryMsg, DelugeRequestMsg, DelugeDataMsg,
                 MoapPublishMsg, MoapSubscribeMsg, MoapDataMsg, MoapNackMsg,
                 XnpDataMsg, XnpQueryMsg, XnpFixRequestMsg, NcastAdvMsg,
                 NcastReqMsg, NcastCodedMsg>;
static_assert(std::variant_size_v<Payload> == kPacketTypeCount,
              "one PacketType per Payload alternative");

namespace detail {

/// Per-type constant tables in PacketType order, read off the messages'
/// declarations.
template <typename Variant>
struct MessageTables;
template <typename... M>
struct MessageTables<std::variant<M...>> {
  static constexpr std::array<const char*, sizeof...(M)> kNames{M::kName...};
  static constexpr std::array<MsgClass, sizeof...(M)> kClasses{M::kClass...};
  static constexpr std::array<bool, sizeof...(M)> kBulk{CarriesPayload<M>...};
};
using Tables = MessageTables<Payload>;

}  // namespace detail

/// Type tag as a static string — the allocation-free spelling the trace
/// hot path records (EventLog stores details inline).
inline const char* type_name(PacketType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kPacketTypeCount ? detail::Tables::kNames[i] : "Unknown";
}

/// Human-readable type tag for reports.
inline std::string to_string(PacketType type) { return type_name(type); }

/// True for bulk code-carrying packets (used by the channel's concurrent-
/// sender monitor and by message accounting).
inline bool is_bulk_data(PacketType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kPacketTypeCount && detail::Tables::kBulk[i];
}

/// The message's Fig.-12 class.
inline MsgClass classify(PacketType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kPacketTypeCount ? detail::Tables::kClasses[i] : MsgClass::kOther;
}

struct Packet {
  NodeId src = kNoNode;
  Payload payload;
  /// Transmit power as a fraction of the node's configured range
  /// (battery-aware extension advertises at reduced power).
  double power_scale = 1.0;

  PacketType type() const { return static_cast<PacketType>(payload.index()); }

  /// Logical destination, kBroadcastId when the message has none.
  NodeId logical_dest() const;

  /// Bytes on air: preamble/sync + MAC header + typed payload + CRC.
  std::size_t wire_bytes() const;

  template <typename T>
  const T* as() const {
    return std::get_if<T>(&payload);
  }
};

/// MAC-layer framing overhead: 8 B preamble + 2 B sync + 5 B header
/// (dest, src, type) + 2 B CRC, mirroring the TinyOS Mica-2 stack.
inline constexpr std::size_t kFramingBytes = 8 + 2 + 5 + 2;

}  // namespace mnp::net
