// Unit tests for the typed packet variant: type mapping, names, logical
// destinations, bulk flags, Fig.-12 classes and on-air sizes (airtime
// inputs). The per-type checks run over every Payload alternative against
// one expectation row per PacketType, so a new message cannot be left out.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "net/packet.hpp"

namespace mnp::net {
namespace {

template <typename T>
Packet make(T msg) {
  Packet pkt;
  pkt.payload = std::move(msg);
  return pkt;
}

/// What each type must be, written out independently of packet.hpp.
struct Expected {
  PacketType type;
  const char* name;  // byte-identical: event logs and the golden trace
  MsgClass cls;
  bool bulk;
  bool addressed;  // carries a logical `dest`
};

constexpr Expected kExpected[] = {
    {PacketType::kAdvertisement, "Advertisement", MsgClass::kAdvertisement, false, false},
    {PacketType::kDownloadRequest, "DownloadRequest", MsgClass::kRequest, false, true},
    {PacketType::kStartDownload, "StartDownload", MsgClass::kOther, false, false},
    {PacketType::kData, "Data", MsgClass::kData, true, false},
    {PacketType::kEndDownload, "EndDownload", MsgClass::kOther, false, false},
    {PacketType::kQuery, "Query", MsgClass::kOther, false, false},
    {PacketType::kRepairRequest, "RepairRequest", MsgClass::kRequest, false, true},
    {PacketType::kDelugeSummary, "DelugeSummary", MsgClass::kAdvertisement, false, false},
    {PacketType::kDelugeRequest, "DelugeRequest", MsgClass::kRequest, false, true},
    {PacketType::kDelugeData, "DelugeData", MsgClass::kData, true, false},
    {PacketType::kMoapPublish, "MoapPublish", MsgClass::kAdvertisement, false, false},
    {PacketType::kMoapSubscribe, "MoapSubscribe", MsgClass::kRequest, false, true},
    {PacketType::kMoapData, "MoapData", MsgClass::kData, true, false},
    {PacketType::kMoapNack, "MoapNack", MsgClass::kRequest, false, true},
    {PacketType::kXnpData, "XnpData", MsgClass::kData, true, false},
    {PacketType::kXnpQuery, "XnpQuery", MsgClass::kOther, false, false},
    {PacketType::kXnpFixRequest, "XnpFixRequest", MsgClass::kRequest, false, false},
    {PacketType::kNcastAdv, "NcastAdv", MsgClass::kAdvertisement, false, false},
    {PacketType::kNcastRequest, "NcastRequest", MsgClass::kRequest, false, true},
    {PacketType::kNcastCoded, "NcastCoded", MsgClass::kData, true, false},
};
static_assert(std::size(kExpected) == kPacketTypeCount,
              "one expectation row per PacketType");

const Expected& expected(PacketType t) {
  return kExpected[static_cast<std::size_t>(t)];
}

/// Calls `f(std::type_identity<M>{}, t)` for every Payload alternative M,
/// where t is the PacketType of M's variant index.
template <typename F>
void for_each_message(F&& f) {
  [&f]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::type_identity<std::variant_alternative_t<I, Payload>>{},
       static_cast<PacketType>(I)),
     ...);
  }(std::make_index_sequence<kPacketTypeCount>{});
}

TEST(Packet, TypeMappingCoversEveryVariant) {
  for_each_message([](auto msg, PacketType t) {
    using M = typename decltype(msg)::type;
    EXPECT_EQ(expected(t).type, t) << "expectation rows out of order";
    EXPECT_EQ(make(M{}).type(), t) << expected(t).name;
  });
}

TEST(Packet, LogicalDestDefaultsToBroadcast) {
  for_each_message([](auto msg, PacketType t) {
    using M = typename decltype(msg)::type;
    EXPECT_EQ(make(M{}).logical_dest(), kBroadcastId) << expected(t).name;
  });
}

TEST(Packet, AddressedMessagesCarryTheirDest) {
  for_each_message([](auto msg, PacketType t) {
    using M = typename decltype(msg)::type;
    M m{};
    if constexpr (requires { m.dest; }) {
      EXPECT_TRUE(expected(t).addressed) << expected(t).name;
      m.dest = static_cast<NodeId>(0x0100 + static_cast<int>(t));
      EXPECT_EQ(make(m).logical_dest(), m.dest) << expected(t).name;
    } else {
      EXPECT_FALSE(expected(t).addressed) << expected(t).name;
    }
  });
}

TEST(Packet, AsReturnsTypedPayloadOrNull) {
  AdvertisementMsg adv;
  adv.seg_id = 3;
  Packet pkt = make(adv);
  pkt.src = 12;
  ASSERT_NE(pkt.as<AdvertisementMsg>(), nullptr);
  EXPECT_EQ(pkt.as<AdvertisementMsg>()->seg_id, 3);
  EXPECT_EQ(pkt.as<DataMsg>(), nullptr);
}

TEST(Packet, WireBytesIncludeFraming) {
  Packet adv{0, AdvertisementMsg{}};
  EXPECT_EQ(adv.wire_bytes(), kFramingBytes + 2 + 4 + 2 + 2 + 1);
}

TEST(Packet, DataWireBytesScaleWithPayload) {
  DataMsg d;
  d.payload.assign(22, 0xAB);
  Packet pkt = make(d);
  EXPECT_EQ(pkt.wire_bytes(), kFramingBytes + 2 + 2 + 2 + 22);
}

TEST(Packet, DownloadRequestCarries16ByteMissingVector) {
  // A full MissingVector must fit in one radio packet (paper section 3.3):
  // total on-air size stays well under the CC1000 practical frame bound.
  Packet req{0, DownloadRequestMsg{}};
  EXPECT_EQ(req.wire_bytes(),
            kFramingBytes + 2 + 2 + 2 + 1 + 2 + 1 + util::Bitmap::kMaxBytes);
  EXPECT_LE(req.wire_bytes(), 64u);
}

TEST(Packet, BulkDataClassification) {
  for (const Expected& e : kExpected) {
    EXPECT_EQ(is_bulk_data(e.type), e.bulk) << e.name;
  }
}

TEST(Packet, TypeNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const Expected& e : kExpected) {
    const std::string name = to_string(e.type);
    EXPECT_EQ(name, e.name);
    EXPECT_STREQ(type_name(e.type), e.name);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(Packet, DefaultPowerScaleIsFull) {
  Packet pkt{0, AdvertisementMsg{}};
  EXPECT_DOUBLE_EQ(pkt.power_scale, 1.0);
}

TEST(Classify, MessageClasses) {
  for (const Expected& e : kExpected) {
    EXPECT_EQ(classify(e.type), e.cls) << e.name;
  }
}

}  // namespace
}  // namespace mnp::net
