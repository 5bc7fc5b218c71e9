#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace mgrid::serve::wire {
namespace {

TEST(Wire, LuRoundTripsExactly) {
  LuMsg lu;
  lu.mn = 0xDEADBEEF;
  lu.seq = 42;
  lu.t = 1234.5678901234;
  lu.x = -17.25;
  lu.y = 1e-300;
  lu.vx = std::numeric_limits<double>::denorm_min();
  lu.vy = -0.0;
  lu.battery = 0.875;

  std::vector<std::uint8_t> buffer;
  const std::size_t frame_size = encode(buffer, lu);
  EXPECT_EQ(frame_size, kHeaderBytes + payload_size(MsgType::kLu));
  EXPECT_EQ(buffer.size(), frame_size);

  const Decoded decoded = decode_frame(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.consumed, frame_size);
  const LuMsg& got = std::get<LuMsg>(decoded.msg);
  EXPECT_EQ(got.mn, lu.mn);
  EXPECT_EQ(got.seq, lu.seq);
  // Doubles travel as IEEE-754 bit patterns: bit-exact, including -0.0.
  EXPECT_EQ(got.t, lu.t);
  EXPECT_EQ(got.x, lu.x);
  EXPECT_EQ(got.y, lu.y);
  EXPECT_EQ(got.vx, lu.vx);
  EXPECT_EQ(got.vy, lu.vy);
  EXPECT_TRUE(std::signbit(got.vy));
  EXPECT_EQ(got.battery, lu.battery);
}

TEST(Wire, EveryMessageTypeRoundTrips) {
  std::vector<std::uint8_t> buffer;

  AckMsg ack{7, AckStatus::kOverload, 9.5};
  encode(buffer, ack);
  LookupMsg lookup{11, 30.0};
  encode(buffer, lookup);
  LookupReplyMsg reply;
  reply.mn = 11;
  reply.found = true;
  reply.estimated = true;
  reply.t = 30.0;
  reply.x = 3.5;
  reply.y = -4.5;
  encode(buffer, reply);
  RegionQueryMsg region{100.0, 200.0, 75.0, 32};
  encode(buffer, region);
  NearestQueryMsg nearest{10.0, 20.0, 8};
  encode(buffer, nearest);

  std::span<const std::uint8_t> cursor(buffer);

  Decoded d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<AckMsg>(d.msg).mn, 7u);
  EXPECT_EQ(std::get<AckMsg>(d.msg).status, AckStatus::kOverload);
  EXPECT_EQ(std::get<AckMsg>(d.msg).t, 9.5);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<LookupMsg>(d.msg).mn, 11u);
  EXPECT_EQ(std::get<LookupMsg>(d.msg).t, 30.0);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::get<LookupReplyMsg>(d.msg).found);
  EXPECT_TRUE(std::get<LookupReplyMsg>(d.msg).estimated);
  EXPECT_EQ(std::get<LookupReplyMsg>(d.msg).x, 3.5);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<RegionQueryMsg>(d.msg).radius, 75.0);
  EXPECT_EQ(std::get<RegionQueryMsg>(d.msg).max_results, 32u);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<NearestQueryMsg>(d.msg).k, 8u);
  cursor = cursor.subspan(d.consumed);
  EXPECT_TRUE(cursor.empty());
}

TEST(Wire, PartialFramesAskForMoreData) {
  std::vector<std::uint8_t> buffer;
  encode(buffer, LuMsg{});
  // Every proper prefix — header fragments and payload fragments alike —
  // reports kNeedMoreData with nothing consumed.
  for (std::size_t n = 0; n < buffer.size(); ++n) {
    const Decoded decoded =
        decode_frame(std::span<const std::uint8_t>(buffer.data(), n));
    EXPECT_EQ(decoded.status, DecodeStatus::kNeedMoreData) << "prefix " << n;
    EXPECT_EQ(decoded.consumed, 0u);
  }
}

TEST(Wire, RejectsBadMagicVersionTypeAndLength) {
  std::vector<std::uint8_t> good;
  encode(good, LuMsg{});

  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadMagic);
  // Bad magic is detectable from the very first byte.
  EXPECT_EQ(decode_frame(std::span<const std::uint8_t>(bad.data(), 1)).status,
            DecodeStatus::kBadMagic);

  bad = good;
  bad[2] = 99;  // version
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadVersion);

  bad = good;
  bad[3] = 0;  // type: 0 is not assigned
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadType);
  bad[3] = 200;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadType);

  bad = good;
  bad[4] = static_cast<std::uint8_t>(bad[4] + 1);  // payload_len mismatch
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadLength);

  // A huge declared length must be rejected, not waited for.
  bad = good;
  bad[4] = 0xFF;
  bad[5] = 0xFF;
  bad[6] = 0xFF;
  bad[7] = 0x7F;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadLength);
}

TEST(Wire, HostileRandomBytesNeverCrash) {
  // Deterministic xorshift noise: decode must always return a status.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(static_cast<std::size_t>(trial % 97));
    for (std::uint8_t& byte : noise) byte = next();
    const Decoded decoded = decode_frame(noise);
    if (decoded.ok()) {
      EXPECT_LE(decoded.consumed, noise.size());
    } else {
      EXPECT_EQ(decoded.consumed, 0u);
    }
  }
}

TEST(Wire, PayloadSizesMatchSpec) {
  EXPECT_EQ(payload_size(MsgType::kLu), 56u);
  EXPECT_EQ(payload_size(MsgType::kAck), 16u);
  EXPECT_EQ(payload_size(MsgType::kLookup), 16u);
  EXPECT_EQ(payload_size(MsgType::kLookupReply), 32u);
  EXPECT_EQ(payload_size(MsgType::kRegionQuery), 32u);
  EXPECT_EQ(payload_size(MsgType::kNearestQuery), 24u);
  EXPECT_EQ(payload_size(MsgType::kTick), 16u);
  EXPECT_EQ(payload_size(MsgType::kNeighbor), 32u);
  EXPECT_EQ(payload_size(MsgType::kQueryDone), 16u);
  EXPECT_EQ(payload_size(MsgType::kSubscribe), 16u);
  EXPECT_EQ(payload_size(MsgType::kSnapshotChunk), kVariablePayload);
  EXPECT_EQ(payload_size(MsgType::kSnapshotDone), 16u);
  EXPECT_EQ(payload_size(MsgType::kTracedLu), 88u);
  EXPECT_EQ(payload_size(static_cast<MsgType>(0)), 0u);
}

TEST(Wire, ClusterMessageTypesRoundTrip) {
  std::vector<std::uint8_t> buffer;
  NeighborMsg neighbor{17, 42.5, -3.25, 1e-12};
  encode(buffer, neighbor);
  QueryDoneMsg done{9, 88.0};
  encode(buffer, done);
  SubscribeMsg subscribe{0xABCDEF0123456789ull, 0};
  encode(buffer, subscribe);
  SnapshotDoneMsg snap_done{123456789ull, 987ull};
  encode(buffer, snap_done);

  std::span<const std::uint8_t> cursor(buffer);
  Decoded d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<NeighborMsg>(d.msg).mn, 17u);
  EXPECT_EQ(std::get<NeighborMsg>(d.msg).distance, 42.5);
  EXPECT_EQ(std::get<NeighborMsg>(d.msg).x, -3.25);
  EXPECT_EQ(std::get<NeighborMsg>(d.msg).y, 1e-12);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<QueryDoneMsg>(d.msg).count, 9u);
  EXPECT_EQ(std::get<QueryDoneMsg>(d.msg).t, 88.0);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<SubscribeMsg>(d.msg).from_record, 0xABCDEF0123456789ull);
  EXPECT_EQ(std::get<SubscribeMsg>(d.msg).flags, 0u);
  cursor = cursor.subspan(d.consumed);

  d = decode_frame(cursor);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::get<SnapshotDoneMsg>(d.msg).total_bytes, 123456789ull);
  EXPECT_EQ(std::get<SnapshotDoneMsg>(d.msg).wal_records, 987ull);
  cursor = cursor.subspan(d.consumed);
  EXPECT_TRUE(cursor.empty());
}

TEST(Wire, SnapshotChunkCarriesVariablePayload) {
  SnapshotChunkMsg chunk;
  chunk.bytes.resize(4099);
  for (std::size_t i = 0; i < chunk.bytes.size(); ++i) {
    chunk.bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  std::vector<std::uint8_t> buffer;
  const std::size_t frame_size = encode(buffer, chunk);
  EXPECT_EQ(frame_size, kHeaderBytes + chunk.bytes.size());

  const Decoded decoded = decode_frame(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.consumed, frame_size);
  EXPECT_EQ(std::get<SnapshotChunkMsg>(decoded.msg).bytes, chunk.bytes);

  // An empty chunk is legal (a zero-byte snapshot tail).
  SnapshotChunkMsg empty;
  std::vector<std::uint8_t> small;
  encode(small, empty);
  const Decoded decoded_empty = decode_frame(small);
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_TRUE(std::get<SnapshotChunkMsg>(decoded_empty.msg).bytes.empty());

  // Oversized chunks refuse to encode; an oversized declared length is
  // kBadLength on decode (a hostile header must not buffer gigabytes).
  SnapshotChunkMsg huge;
  huge.bytes.resize(kMaxChunkBytes + 1);
  std::vector<std::uint8_t> refused;
  EXPECT_EQ(encode(refused, huge), 0u);
  EXPECT_TRUE(refused.empty());

  std::vector<std::uint8_t> bad = buffer;
  const std::uint32_t lie = kMaxChunkBytes + 1;
  bad[4] = static_cast<std::uint8_t>(lie & 0xFF);
  bad[5] = static_cast<std::uint8_t>((lie >> 8) & 0xFF);
  bad[6] = static_cast<std::uint8_t>((lie >> 16) & 0xFF);
  bad[7] = static_cast<std::uint8_t>((lie >> 24) & 0xFF);
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadLength);
}

TEST(Wire, TracedLuRoundTripsExactly) {
  LuMsg traced;
  traced.mn = 0xCAFEBABE;
  traced.seq = 77;
  traced.t = 99.125;
  traced.x = -1.5;
  traced.y = 2.25;
  traced.vx = 0.0625;
  traced.vy = -0.0;
  traced.battery = 0.5;
  traced.trace.trace_id = 0xFEEDFACE01234567ull;
  traced.trace.origin_us = 0xFFFF0000AAAA5555ull;
  traced.trace.send_us = traced.trace.origin_us + 1234;
  traced.trace.parent_stage = 1;

  std::vector<std::uint8_t> buffer;
  const std::size_t frame_size = encode(buffer, traced);
  EXPECT_EQ(frame_size, kHeaderBytes + payload_size(MsgType::kTracedLu));
  EXPECT_EQ(payload_size(MsgType::kTracedLu), 88u);
  // The traced frame is the only one stamped version 2.
  EXPECT_EQ(buffer[2], kTracedVersion);

  const Decoded decoded = decode_frame(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.consumed, frame_size);
  const LuMsg& got = std::get<LuMsg>(decoded.msg);
  EXPECT_EQ(got.mn, traced.mn);
  EXPECT_EQ(got.seq, traced.seq);
  EXPECT_EQ(got.t, traced.t);
  EXPECT_EQ(got.x, traced.x);
  EXPECT_EQ(got.y, traced.y);
  EXPECT_EQ(got.vx, traced.vx);
  EXPECT_TRUE(std::signbit(got.vy));
  EXPECT_EQ(got.battery, traced.battery);
  EXPECT_EQ(got.trace.trace_id, traced.trace.trace_id);
  EXPECT_EQ(got.trace.origin_us, traced.trace.origin_us);
  EXPECT_EQ(got.trace.send_us, traced.trace.send_us);
  EXPECT_EQ(got.trace.parent_stage, traced.trace.parent_stage);

  // The first 56 payload bytes are the plain kLu layout: a traced frame
  // whose header is rewritten to (version 1, kLu, 56) decodes to the same
  // LU with no trace — the trace context is a strict suffix extension.
  std::vector<std::uint8_t> as_v1(buffer.begin(),
                                  buffer.begin() + kHeaderBytes + 56);
  as_v1[2] = kVersion;
  as_v1[3] = static_cast<std::uint8_t>(MsgType::kLu);
  as_v1[4] = 56;
  as_v1[5] = as_v1[6] = as_v1[7] = 0;
  const Decoded plain = decode_frame(as_v1);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(std::get<LuMsg>(plain.msg).mn, traced.mn);
  EXPECT_EQ(std::get<LuMsg>(plain.msg).t, traced.t);
  EXPECT_EQ(std::get<LuMsg>(plain.msg).trace.trace_id, 0u);

  // The same message with its trace cleared encodes to exactly that frame.
  LuMsg untraced = traced;
  untraced.trace = {};
  std::vector<std::uint8_t> v1_frame;
  encode(v1_frame, untraced);
  EXPECT_EQ(v1_frame, as_v1);
}

/// An LuMsg whose trace id is set, so encode() emits a kTracedLu frame.
LuMsg traced_lu() {
  LuMsg msg;
  msg.trace.trace_id = 1;
  return msg;
}

TEST(Wire, TracedLuVersionSkewRejectsBothDirections) {
  // Forward skew: a v1-era decoder sees version 2 and must reject at the
  // header without misparsing the payload. Our decoder enforces the exact
  // type<->version pairing, so flipping either field alone is kBadVersion.
  std::vector<std::uint8_t> traced;
  encode(traced, traced_lu());

  std::vector<std::uint8_t> bad = traced;
  bad[2] = kVersion;  // traced type with a v1 header
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadVersion);

  // Backward skew: a plain frame claiming version 2 (e.g. a buggy sender
  // stamping everything v2) is equally rejected.
  std::vector<std::uint8_t> plain;
  encode(plain, LuMsg{});
  bad = plain;
  bad[2] = kTracedVersion;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadVersion);

  // Versions beyond 2 stay unknown even on the traced type.
  bad = traced;
  bad[2] = 3;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadVersion);

  // Truncating the trace suffix is a length error, not an accepted kLu.
  bad = traced;
  bad[4] = 56;  // declared payload_len: the v1 LU size
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBadLength);
}

TEST(Wire, TracedLuPartialFramesAskForMoreData) {
  std::vector<std::uint8_t> buffer;
  encode(buffer, traced_lu());
  for (std::size_t n = 0; n < buffer.size(); ++n) {
    const Decoded decoded =
        decode_frame(std::span<const std::uint8_t>(buffer.data(), n));
    EXPECT_EQ(decoded.status, DecodeStatus::kNeedMoreData) << "prefix " << n;
    EXPECT_EQ(decoded.consumed, 0u);
  }
}

TEST(Wire, TracedLuHostileHeaderFuzz) {
  // Mutate every header byte of a valid traced frame through all 256
  // values: decode must always return a typed status and never crash or
  // over-consume.
  std::vector<std::uint8_t> good;
  encode(good, traced_lu());
  for (std::size_t index = 0; index < kHeaderBytes; ++index) {
    for (int value = 0; value < 256; ++value) {
      std::vector<std::uint8_t> bad = good;
      bad[index] = static_cast<std::uint8_t>(value);
      const Decoded decoded = decode_frame(bad);
      if (decoded.ok()) {
        EXPECT_LE(decoded.consumed, bad.size());
      } else if (decoded.status != DecodeStatus::kNeedMoreData) {
        EXPECT_EQ(decoded.consumed, 0u);
      }
    }
  }
}

TEST(Wire, TickRoundTripsExactly) {
  TickMsg tick;
  tick.t = 1234.5;
  tick.tick = 0xFFFF'FFFF'0000'0001ull;

  std::vector<std::uint8_t> buffer;
  const std::size_t frame_size = encode(buffer, tick);
  EXPECT_EQ(frame_size, kHeaderBytes + payload_size(MsgType::kTick));

  const Decoded decoded = decode_frame(buffer);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.consumed, frame_size);
  const TickMsg& got = std::get<TickMsg>(decoded.msg);
  EXPECT_EQ(got.t, 1234.5);
  EXPECT_EQ(got.tick, tick.tick);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// The encoder's bytes are the protocol: shards, followers and WAL files
// written by older builds must keep decoding. These frames are pinned as
// hex, so a codec rewrite that moves one bit fails here.
TEST(Wire, LuAndTickFramesArePinnedBytes) {
  LuMsg lu;
  lu.mn = 0xDEADBEEF;
  lu.seq = 42;
  lu.t = 1234.5678901234;
  lu.x = -17.25;
  lu.y = 1e-300;
  lu.vx = std::numeric_limits<double>::denorm_min();
  lu.vy = -0.0;
  lu.battery = 0.875;
  std::vector<std::uint8_t> frame;
  encode(frame, lu);
  EXPECT_EQ(hex(frame),
            "474d010138000000"                  // magic, v1, kLu, 56
            "efbeadde2a000000"                  // mn, seq
            "e60efd84454a9340"                  // t
            "00000000004031c0"                  // x
            "59f3f8c21f6ea501"                  // y
            "0100000000000000"                  // vx (denorm_min)
            "0000000000000080"                  // vy (-0.0)
            "000000000000ec3f");                // battery

  // The same LU with a trace context: a version-2 kTracedLu frame, the kLu
  // payload followed by the 32-byte trace suffix.
  LuMsg traced = lu;
  traced.trace.trace_id = 0xFEEDFACE01234567ull;
  traced.trace.origin_us = 0x0011223344556677ull;
  traced.trace.send_us = 0x8899AABBCCDDEEFFull;
  traced.trace.parent_stage = 5;
  frame.clear();
  encode(frame, traced);
  EXPECT_EQ(hex(frame),
            "474d020d58000000"                  // magic, v2, kTracedLu, 88
            "efbeadde2a000000"                  // mn, seq
            "e60efd84454a9340"                  // t
            "00000000004031c0"                  // x
            "59f3f8c21f6ea501"                  // y
            "0100000000000000"                  // vx (denorm_min)
            "0000000000000080"                  // vy (-0.0)
            "000000000000ec3f"                  // battery
            "67452301cefaedfe"                  // trace_id
            "7766554433221100"                  // origin_us
            "ffeeddccbbaa9988"                  // send_us
            "0500000000000000");                // parent_stage, pad

  frame.clear();
  encode(frame, TickMsg{1800.5, 0x0123456789ABCDEFull});
  EXPECT_EQ(hex(frame),
            "474d010710000000"                  // magic, v1, kTick, 16
            "0000000000229c40"                  // t
            "efcdab8967452301");                // tick
}

}  // namespace
}  // namespace mgrid::serve::wire
