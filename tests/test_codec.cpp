// Wire codec tests: every packet type round-trips byte-exactly and
// encodes to its golden frame, corrupt and non-canonical frames are
// rejected, and the airtime model's wire sizes relate exactly to the real
// encoding.
#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/codec.hpp"

namespace mnp::net {
namespace {

template <typename T>
Packet make(T msg, NodeId src = 7) {
  Packet pkt;
  pkt.src = src;
  pkt.payload = std::move(msg);
  return pkt;
}

template <typename T>
const T& round_trip(const Packet& pkt) {
  static Packet decoded;
  const auto frame = encode(pkt);
  auto result = decode(frame);
  EXPECT_TRUE(result.has_value());
  decoded = *result;
  EXPECT_EQ(decoded.src, pkt.src);
  EXPECT_EQ(decoded.type(), pkt.type());
  const T* typed = decoded.as<T>();
  EXPECT_NE(typed, nullptr);
  return *typed;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char byte[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    out += byte;
  }
  return out;
}

/// Recomputes the CRC trailer so only the codec's own checks can reject
/// an edited frame.
void reseal(std::vector<std::uint8_t>& frame) {
  const std::uint16_t crc = crc16(frame.data(), frame.size() - 2);
  frame[frame.size() - 2] = static_cast<std::uint8_t>(crc & 0xFF);
  frame[frame.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
}

util::Bitmap bits(std::size_t size, std::initializer_list<std::size_t> set) {
  util::Bitmap b(size);
  for (std::size_t i : set) b.set(i);
  return b;
}

struct Golden {
  Packet pkt;
  std::string hex;
};

/// One non-default sample per message type, in PacketType order, and its
/// frame. Every field holds a distinct value, so the hex pins the byte
/// layout — field order, widths, the length and size bytes — which a
/// round trip through the one shared field list cannot catch.
std::vector<Golden> golden_frames() {
  const std::pair<Payload, const char*> rows[] = {
      {AdvertisementMsg{0x1111, 0x22223333, 0x4444, 0x5555, 0x66},
       "ffff0201001111333322224444555566a356"},
      {DownloadRequestMsg{0x0A0B, 0x1111, 0x2222, 0x33, 0x4444, true,
                          bits(100, {0, 77, 99})},
       "0b0a0201010b0a111122223344440164010000000000000000200000080000003d6d"},
      {StartDownloadMsg{0x1111, 0x2222, 0x3333}, "ffff0201021111222233330e74"},
      {DataMsg{0x1111, 0x2222, 0x3333, {0xA1, 0xA2, 0xA3}},
       "ffff02010311112222333303a1a2a329a4"},
      {EndDownloadMsg{0x1111}, "ffff0201041111a5dc"},
      {QueryMsg{0x1111}, "ffff020105111195eb"},
      {RepairRequestMsg{0x0A0B, 0x1111, 0x2222}, "0b0a0201060b0a11112222c342"},
      {DelugeSummaryMsg{0x1111, 0x2222, 0x3333, 0x44445555},
       "ffff0201071111222233335555444483af"},
      {DelugeRequestMsg{0x0A0B, 0x1111, bits(48, {1, 47})},
       "0b0a0201080b0a111130020000000080000000000000000000009b44"},
      {DelugeDataMsg{0x1111, 0x2222, 0x33, {0xA1, 0xA2}},
       "ffff020109111122223302a1a29a68"},
      {MoapPublishMsg{0x1111, 0x2222, 0x33334444},
       "ffff02010a11112222444433339a14"},
      {MoapSubscribeMsg{0x0A0B}, "0b0a02010b0b0a9583"},
      {MoapDataMsg{0x1111, 0x2222, {0xA1}}, "ffff02010c1111222201a18a86"},
      {MoapNackMsg{0x0A0B, 0x1111}, "0b0a02010d0b0a11110062"},
      {XnpDataMsg{0x1111, 0x2222, {0xA1, 0xA2, 0xA3, 0xA4}},
       "ffff02010e1111222204a1a2a3a4cbee"},
      {XnpQueryMsg{0x1111}, "ffff02010f1111542c"},
      {XnpFixRequestMsg{0x1111}, "ffff02011011110643"},
      {NcastAdvMsg{0x1111, 0x22223333, 0x4444, 0x5555, 0x66, 0x77},
       "ffff02011111113333222244445555667794c4"},
      {NcastReqMsg{0x0A0B, 0x1111, 0x22}, "0b0a0201120b0a1111224397"},
      {NcastCodedMsg{0x1111, 0x2222, {0xA1, 0xA2, 0xA3}},
       "ffff0201131111222203a1a2a3ab59"},
  };
  std::vector<Golden> out;
  for (const auto& [msg, frame] : rows) out.push_back({make(msg, 0x0102), frame});
  return out;
}

/// The golden sample frame of one type.
std::vector<std::uint8_t> sample_frame(PacketType type) {
  return encode(golden_frames().at(static_cast<std::size_t>(type)).pkt);
}

/// Bitmaps and byte vectors: fields with a size or length byte on the
/// wire that wire_bytes() does not model.
template <typename T>
constexpr bool kPrefixed = std::is_same_v<T, util::Bitmap> ||
                           std::is_same_v<T, std::vector<std::uint8_t>>;

std::size_t prefixed_fields(const Packet& pkt) {
  return std::visit(
      [](const auto& m) {
        return m.fields(m, [](const auto&... field) {
          return (std::size_t{0} + ... +
                  kPrefixed<std::remove_cvref_t<decltype(field)>>);
        });
      },
      pkt.payload);
}

TEST(Codec, Advertisement) {
  AdvertisementMsg m;
  m.program_id = 5;
  m.program_bytes = 123456;
  m.program_segments = 9;
  m.seg_id = 3;
  m.req_ctr = 42;
  const auto& d = round_trip<AdvertisementMsg>(make(m));
  EXPECT_EQ(d.program_id, 5);
  EXPECT_EQ(d.program_bytes, 123456u);
  EXPECT_EQ(d.program_segments, 9);
  EXPECT_EQ(d.seg_id, 3);
  EXPECT_EQ(d.req_ctr, 42);
}

TEST(Codec, DownloadRequestWithBitmap) {
  DownloadRequestMsg m;
  m.dest = 11;
  m.program_id = 2;
  m.seg_id = 4;
  m.req_ctr_echo = 3;
  m.window_base = 256;
  m.request_all = false;
  m.missing = util::Bitmap(128);
  m.missing.set(0);
  m.missing.set(77);
  m.missing.set(127);
  const auto& d = round_trip<DownloadRequestMsg>(make(m));
  EXPECT_EQ(d.dest, 11);
  EXPECT_EQ(d.window_base, 256);
  EXPECT_FALSE(d.request_all);
  EXPECT_EQ(d.missing, m.missing);
}

TEST(Codec, DownloadRequestAllFlag) {
  DownloadRequestMsg m;
  m.request_all = true;
  const auto& d = round_trip<DownloadRequestMsg>(make(m));
  EXPECT_TRUE(d.request_all);
}

TEST(Codec, StartAndEndDownload) {
  StartDownloadMsg s;
  s.program_id = 1;
  s.seg_id = 2;
  s.packet_count = 200;
  EXPECT_EQ(round_trip<StartDownloadMsg>(make(s)).packet_count, 200);
  EndDownloadMsg e;
  e.seg_id = 2;
  EXPECT_EQ(round_trip<EndDownloadMsg>(make(e)).seg_id, 2);
}

TEST(Codec, DataWithPayload) {
  DataMsg m;
  m.program_id = 1;
  m.seg_id = 2;
  m.pkt_id = 300;
  for (int i = 0; i < 22; ++i) m.payload.push_back(static_cast<std::uint8_t>(i));
  const auto& d = round_trip<DataMsg>(make(m));
  EXPECT_EQ(d.pkt_id, 300);
  EXPECT_EQ(d.payload, m.payload);
}

TEST(Codec, QueryAndRepair) {
  QueryMsg q;
  q.seg_id = 7;
  EXPECT_EQ(round_trip<QueryMsg>(make(q)).seg_id, 7);
  RepairRequestMsg rr;
  rr.dest = 4;
  rr.seg_id = 7;
  rr.pkt_id = 513;
  const auto& d = round_trip<RepairRequestMsg>(make(rr));
  EXPECT_EQ(d.dest, 4);
  EXPECT_EQ(d.pkt_id, 513);
}

TEST(Codec, DelugeMessages) {
  DelugeSummaryMsg s;
  s.version = 2;
  s.total_pages = 8;
  s.complete_pages = 5;
  s.program_bytes = 9000;
  EXPECT_EQ(round_trip<DelugeSummaryMsg>(make(s)).complete_pages, 5);

  DelugeRequestMsg r;
  r.dest = 3;
  r.page = 6;
  r.missing = util::Bitmap(48);
  r.missing.set(47);
  const auto& dr = round_trip<DelugeRequestMsg>(make(r));
  EXPECT_EQ(dr.page, 6);
  EXPECT_TRUE(dr.missing.test(47));

  DelugeDataMsg d;
  d.version = 2;
  d.page = 6;
  d.pkt_id = 13;
  d.payload = {1, 2, 3};
  EXPECT_EQ(round_trip<DelugeDataMsg>(make(d)).payload, d.payload);
}

TEST(Codec, MoapMessages) {
  MoapPublishMsg p;
  p.version = 3;
  p.total_packets = 444;
  p.program_bytes = 9768;
  EXPECT_EQ(round_trip<MoapPublishMsg>(make(p)).total_packets, 444);
  MoapSubscribeMsg s;
  s.dest = 2;
  EXPECT_EQ(round_trip<MoapSubscribeMsg>(make(s)).dest, 2);
  MoapDataMsg d;
  d.version = 3;
  d.pkt_id = 443;
  d.payload = {9, 8, 7};
  EXPECT_EQ(round_trip<MoapDataMsg>(make(d)).pkt_id, 443);
  MoapNackMsg n;
  n.dest = 2;
  n.pkt_id = 100;
  EXPECT_EQ(round_trip<MoapNackMsg>(make(n)).pkt_id, 100);
}

TEST(Codec, XnpMessages) {
  XnpDataMsg d;
  d.pkt_id = 9;
  d.total_packets = 64;
  d.payload = {5};
  EXPECT_EQ(round_trip<XnpDataMsg>(make(d)).total_packets, 64);
  XnpQueryMsg q;
  q.total_packets = 64;
  EXPECT_EQ(round_trip<XnpQueryMsg>(make(q)).total_packets, 64);
  XnpFixRequestMsg f;
  f.pkt_id = 31;
  EXPECT_EQ(round_trip<XnpFixRequestMsg>(make(f)).pkt_id, 31);
}

TEST(Codec, CorruptFramesRejected) {
  auto frame = encode(make(AdvertisementMsg{}));
  // Single-byte corruption anywhere must fail the CRC.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x40;
    EXPECT_FALSE(decode(bad).has_value()) << "survived flip at " << i;
  }
  // Truncation.
  auto cut = frame;
  cut.pop_back();
  EXPECT_FALSE(decode(cut).has_value());
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({1, 2, 3}).has_value());
}

TEST(Codec, UnknownTypeRejected) {
  auto frame = encode(make(AdvertisementMsg{}));
  frame[4] = 0xEE;  // type byte
  reseal(frame);
  EXPECT_FALSE(decode(frame).has_value());
  frame[4] = static_cast<std::uint8_t>(kPacketTypeCount);  // first unused
  reseal(frame);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Codec, GoldenFrames) {
  const std::vector<Golden> golden = golden_frames();
  ASSERT_EQ(golden.size(), kPacketTypeCount) << "one sample per type";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const Golden& g = golden[i];
    ASSERT_EQ(g.pkt.type(), static_cast<PacketType>(i)) << "rows out of order";
    const auto frame = encode(g.pkt);
    EXPECT_EQ(hex(frame), g.hex) << to_string(g.pkt.type());
    const auto decoded = decode(frame);
    ASSERT_TRUE(decoded.has_value()) << to_string(g.pkt.type());
    EXPECT_EQ(decoded->src, g.pkt.src);
    EXPECT_EQ(decoded->type(), g.pkt.type());
    EXPECT_EQ(hex(encode(*decoded)), g.hex) << to_string(g.pkt.type());
  }
}

// decode() accepts only frames encode() writes. One test per kind of
// frame that once decoded and re-encoded to other bytes.
TEST(Codec, HeaderDestMustMatchThePayload) {
  auto req = sample_frame(PacketType::kDownloadRequest);
  ASSERT_TRUE(decode(req).has_value());
  req[0] = 0x0C;  // header says 0x0A0C, payload says 0x0A0B
  reseal(req);
  EXPECT_FALSE(decode(req).has_value());

  auto adv = sample_frame(PacketType::kAdvertisement);
  adv[0] = 0x05;  // no payload dest: the header must be broadcast
  adv[1] = 0x00;
  reseal(adv);
  EXPECT_FALSE(decode(adv).has_value());
}

TEST(Codec, BitmapSizeAboveMaxRejected) {
  auto frame = sample_frame(PacketType::kDownloadRequest);
  constexpr std::size_t kSizeByte = 15;
  ASSERT_EQ(frame[kSizeByte], 100);
  frame[kSizeByte] = util::Bitmap::kMaxBits;
  reseal(frame);
  EXPECT_TRUE(decode(frame).has_value());
  frame[kSizeByte] = util::Bitmap::kMaxBits + 1;
  reseal(frame);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Codec, BitmapBitsPastItsSizeRejected) {
  auto frame = sample_frame(PacketType::kDelugeRequest);
  ASSERT_EQ(frame[9], 48);  // size byte; bits 48..55 live in frame[16]
  frame[16] = 0x01;
  reseal(frame);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Codec, BoolByteMustBeZeroOrOne) {
  auto frame = sample_frame(PacketType::kDownloadRequest);
  constexpr std::size_t kRequestAll = 14;
  ASSERT_EQ(frame[kRequestAll], 1);
  frame[kRequestAll] = 0;
  reseal(frame);
  EXPECT_TRUE(decode(frame).has_value());
  frame[kRequestAll] = 2;
  reseal(frame);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Codec, AcceptedMutantsReencodeToThemselves) {
  // Fixed-seed mutations of every type's sample frame: 1-3 random bytes
  // before the trailer, CRC recomputed. Whatever decode() accepts must be
  // exactly what encode() writes for the decoded packet.
  std::mt19937 rng(25);
  std::size_t accepted = 0, rejected = 0;
  for (const Golden& g : golden_frames()) {
    const auto frame = encode(g.pkt);
    for (int trial = 0; trial < 2000; ++trial) {
      auto mutant = frame;
      for (std::uint32_t n = 1 + rng() % 3; n > 0; --n) {
        mutant[rng() % (mutant.size() - 2)] = static_cast<std::uint8_t>(rng());
      }
      reseal(mutant);
      const auto decoded = decode(mutant);
      if (!decoded) {
        ++rejected;
        continue;
      }
      ++accepted;
      ASSERT_EQ(hex(encode(*decoded)), hex(mutant)) << "mutant of " << g.hex;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Codec, SpanDecodeMatchesVectorDecode) {
  // decode() is span-style so pooled/borrowed buffers parse in place; the
  // vector overload is a thin shim over the same parser.
  DataMsg m;
  m.seg_id = 2;
  m.pkt_id = 17;
  m.payload.assign(22, 0xC3);
  const auto frame = encode(make(std::move(m)));

  const auto from_span = decode(frame.data(), frame.size());
  const auto from_vector = decode(frame);
  ASSERT_TRUE(from_span.has_value());
  ASSERT_TRUE(from_vector.has_value());
  EXPECT_EQ(from_span->src, from_vector->src);
  EXPECT_EQ(from_span->type(), from_vector->type());
  EXPECT_EQ(from_span->as<DataMsg>()->payload,
            from_vector->as<DataMsg>()->payload);

  // Span bounds are honoured: a short length is a truncated frame, not a
  // read past the end.
  EXPECT_FALSE(decode(frame.data(), frame.size() - 1).has_value());
  EXPECT_FALSE(decode(frame.data(), 0).has_value());
}

TEST(Codec, Crc16KnownVector) {
  // CRC-16-CCITT (init 0xFFFF) of "123456789" is 0x29B1.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(digits, 9), 0x29B1);
}

TEST(Codec, WireSizeModelMatchesEncoding) {
  // wire_bytes() = preamble/sync (10, physical only) + frame bytes, less
  // the one size or length byte of each bitmap and byte-vector field.
  for (const Golden& g : golden_frames()) {
    const auto frame = encode(g.pkt);
    EXPECT_EQ(frame.size(), g.pkt.wire_bytes() - kPhysicalOnlyBytes +
                                prefixed_fields(g.pkt))
        << to_string(g.pkt.type());
  }
}

}  // namespace
}  // namespace mnp::net
