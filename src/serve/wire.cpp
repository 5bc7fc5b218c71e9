#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace mgrid::serve::wire {

namespace {

// Appends `v` little-endian: one resize and one store (the frame layout is
// little-endian; a big-endian host reverses the bytes).
template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::uint8_t* p = out.data() + at;
  std::memcpy(p, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(p, p + sizeof(T));
  }
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  put_le(out, v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_le(out, v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le(out, v);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] |
                                    (static_cast<std::uint16_t>(in[at + 1])
                                     << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

double get_f64(std::span<const std::uint8_t> in, std::size_t at) {
  return std::bit_cast<double>(get_u64(in, at));
}

std::size_t begin_frame(std::vector<std::uint8_t>& out, MsgType type) {
  const std::size_t start = out.size();
  put_u16(out, kMagic);
  out.push_back(type == MsgType::kTracedLu ? kTracedVersion : kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload_size(type)));
  return start;
}

void put_lu_payload(std::vector<std::uint8_t>& out, const LuMsg& msg) {
  put_u32(out, msg.mn);
  put_u32(out, msg.seq);
  put_f64(out, msg.t);
  put_f64(out, msg.x);
  put_f64(out, msg.y);
  put_f64(out, msg.vx);
  put_f64(out, msg.vy);
  put_f64(out, msg.battery);
}

LuMsg get_lu_payload(std::span<const std::uint8_t> in, std::size_t at) {
  LuMsg msg;
  msg.mn = get_u32(in, at);
  msg.seq = get_u32(in, at + 4);
  msg.t = get_f64(in, at + 8);
  msg.x = get_f64(in, at + 16);
  msg.y = get_f64(in, at + 24);
  msg.vx = get_f64(in, at + 32);
  msg.vy = get_f64(in, at + 40);
  msg.battery = get_f64(in, at + 48);
  return msg;
}

}  // namespace

std::string_view to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMoreData:
      return "need_more_data";
    case DecodeStatus::kBadMagic:
      return "bad_magic";
    case DecodeStatus::kBadVersion:
      return "bad_version";
    case DecodeStatus::kBadType:
      return "bad_type";
    case DecodeStatus::kBadLength:
      return "bad_length";
  }
  return "unknown";
}

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kLu:
      return "lu";
    case MsgType::kAck:
      return "ack";
    case MsgType::kLookup:
      return "lookup";
    case MsgType::kLookupReply:
      return "lookup_reply";
    case MsgType::kRegionQuery:
      return "region_query";
    case MsgType::kNearestQuery:
      return "nearest_query";
    case MsgType::kTick:
      return "tick";
    case MsgType::kNeighbor:
      return "neighbor";
    case MsgType::kQueryDone:
      return "query_done";
    case MsgType::kSubscribe:
      return "subscribe";
    case MsgType::kSnapshotChunk:
      return "snapshot_chunk";
    case MsgType::kSnapshotDone:
      return "snapshot_done";
    case MsgType::kTracedLu:
      return "traced_lu";
  }
  return "unknown";
}

std::size_t payload_size(MsgType type) noexcept {
  switch (type) {
    case MsgType::kLu:
      return 56;
    case MsgType::kAck:
      return 16;
    case MsgType::kLookup:
      return 16;
    case MsgType::kLookupReply:
      return 32;
    case MsgType::kRegionQuery:
      return 32;
    case MsgType::kNearestQuery:
      return 24;
    case MsgType::kTick:
      return 16;
    case MsgType::kNeighbor:
      return 32;
    case MsgType::kQueryDone:
      return 16;
    case MsgType::kSubscribe:
      return 16;
    case MsgType::kSnapshotChunk:
      return kVariablePayload;
    case MsgType::kSnapshotDone:
      return 16;
    case MsgType::kTracedLu:
      return 88;
  }
  return 0;
}

std::size_t encode(std::vector<std::uint8_t>& out, const LuMsg& msg) {
  const bool traced = msg.trace.trace_id != 0;
  const std::size_t start =
      begin_frame(out, traced ? MsgType::kTracedLu : MsgType::kLu);
  put_lu_payload(out, msg);
  if (traced) {
    put_u64(out, msg.trace.trace_id);
    put_u64(out, msg.trace.origin_us);
    put_u64(out, msg.trace.send_us);
    put_u32(out, msg.trace.parent_stage);
    put_u32(out, 0);
  }
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const AckMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kAck);
  put_u32(out, msg.mn);
  out.push_back(static_cast<std::uint8_t>(msg.status));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  put_f64(out, msg.t);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const LookupMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kLookup);
  put_u32(out, msg.mn);
  put_u32(out, 0);
  put_f64(out, msg.t);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const LookupReplyMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kLookupReply);
  put_u32(out, msg.mn);
  out.push_back(msg.found ? 1 : 0);
  out.push_back(msg.estimated ? 1 : 0);
  out.push_back(0);
  out.push_back(0);
  put_f64(out, msg.t);
  put_f64(out, msg.x);
  put_f64(out, msg.y);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const RegionQueryMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kRegionQuery);
  put_f64(out, msg.x);
  put_f64(out, msg.y);
  put_f64(out, msg.radius);
  put_u32(out, msg.max_results);
  put_u32(out, 0);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const NearestQueryMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kNearestQuery);
  put_f64(out, msg.x);
  put_f64(out, msg.y);
  put_u32(out, msg.k);
  put_u32(out, 0);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const TickMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kTick);
  put_f64(out, msg.t);
  put_u64(out, msg.tick);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const NeighborMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kNeighbor);
  put_u32(out, msg.mn);
  put_u32(out, 0);
  put_f64(out, msg.distance);
  put_f64(out, msg.x);
  put_f64(out, msg.y);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const QueryDoneMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kQueryDone);
  put_u32(out, msg.count);
  put_u32(out, 0);
  put_f64(out, msg.t);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out, const SubscribeMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kSubscribe);
  put_u64(out, msg.from_record);
  put_u64(out, msg.flags);
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const SnapshotChunkMsg& msg) {
  if (msg.bytes.size() > kMaxChunkBytes) return 0;
  const std::size_t start = out.size();
  put_u16(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(MsgType::kSnapshotChunk));
  put_u32(out, static_cast<std::uint32_t>(msg.bytes.size()));
  out.insert(out.end(), msg.bytes.begin(), msg.bytes.end());
  return out.size() - start;
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const SnapshotDoneMsg& msg) {
  const std::size_t start = begin_frame(out, MsgType::kSnapshotDone);
  put_u64(out, msg.total_bytes);
  put_u64(out, msg.wal_records);
  return out.size() - start;
}

Decoded decode_frame(std::span<const std::uint8_t> buffer) {
  Decoded result;
  if (buffer.size() < kHeaderBytes) {
    // Validate whatever prefix of the header we do have, so garbage is
    // rejected immediately instead of stalling a reader forever.
    if (!buffer.empty() && buffer[0] != (kMagic & 0xFF)) {
      result.status = DecodeStatus::kBadMagic;
      return result;
    }
    if (buffer.size() >= 2 && get_u16(buffer, 0) != kMagic) {
      result.status = DecodeStatus::kBadMagic;
      return result;
    }
    if (buffer.size() >= 3 && buffer[2] != kVersion &&
        buffer[2] != kTracedVersion) {
      result.status = DecodeStatus::kBadVersion;
      return result;
    }
    result.status = DecodeStatus::kNeedMoreData;
    return result;
  }
  if (get_u16(buffer, 0) != kMagic) {
    result.status = DecodeStatus::kBadMagic;
    return result;
  }
  const auto type = static_cast<MsgType>(buffer[3]);
  // Version gate: kTracedLu is the one v2 frame; everything else is v1. A
  // mismatched pairing (v2 header on a legacy type, or a traced type under
  // v1) is rejected as kBadVersion — exactly what a v1-only decoder
  // answers for any v2 frame, so skew fails identically in both directions.
  const std::uint8_t required =
      type == MsgType::kTracedLu ? kTracedVersion : kVersion;
  if (buffer[2] != required) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  std::size_t expected = payload_size(type);
  if (expected == 0) {
    result.status = DecodeStatus::kBadType;
    return result;
  }
  const std::uint32_t declared = get_u32(buffer, 4);
  if (expected == kVariablePayload) {
    // The one variable-length type: the header's length is authoritative,
    // bounded so a hostile header cannot demand an unbounded buffer.
    if (declared > kMaxChunkBytes) {
      result.status = DecodeStatus::kBadLength;
      return result;
    }
    expected = declared;
  } else if (declared != expected) {
    result.status = DecodeStatus::kBadLength;
    return result;
  }
  if (buffer.size() < kHeaderBytes + expected) {
    result.status = DecodeStatus::kNeedMoreData;
    return result;
  }
  const std::size_t p = kHeaderBytes;
  switch (type) {
    case MsgType::kLu:
    case MsgType::kTracedLu: {
      LuMsg msg = get_lu_payload(buffer, p);
      if (type == MsgType::kTracedLu) {
        msg.trace.trace_id = get_u64(buffer, p + 56);
        msg.trace.origin_us = get_u64(buffer, p + 64);
        msg.trace.send_us = get_u64(buffer, p + 72);
        msg.trace.parent_stage = get_u32(buffer, p + 80);
      }
      result.msg = msg;
      break;
    }
    case MsgType::kAck: {
      AckMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.status = static_cast<AckStatus>(buffer[p + 4]);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kLookup: {
      LookupMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kLookupReply: {
      LookupReplyMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.found = buffer[p + 4] != 0;
      msg.estimated = buffer[p + 5] != 0;
      msg.t = get_f64(buffer, p + 8);
      msg.x = get_f64(buffer, p + 16);
      msg.y = get_f64(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kRegionQuery: {
      RegionQueryMsg msg;
      msg.x = get_f64(buffer, p);
      msg.y = get_f64(buffer, p + 8);
      msg.radius = get_f64(buffer, p + 16);
      msg.max_results = get_u32(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kNearestQuery: {
      NearestQueryMsg msg;
      msg.x = get_f64(buffer, p);
      msg.y = get_f64(buffer, p + 8);
      msg.k = get_u32(buffer, p + 16);
      result.msg = msg;
      break;
    }
    case MsgType::kTick: {
      TickMsg msg;
      msg.t = get_f64(buffer, p);
      msg.tick = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kNeighbor: {
      NeighborMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.distance = get_f64(buffer, p + 8);
      msg.x = get_f64(buffer, p + 16);
      msg.y = get_f64(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kQueryDone: {
      QueryDoneMsg msg;
      msg.count = get_u32(buffer, p);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kSubscribe: {
      SubscribeMsg msg;
      msg.from_record = get_u64(buffer, p);
      msg.flags = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kSnapshotChunk: {
      SnapshotChunkMsg msg;
      msg.bytes.assign(buffer.begin() + static_cast<std::ptrdiff_t>(p),
                       buffer.begin() + static_cast<std::ptrdiff_t>(p + expected));
      result.msg = std::move(msg);
      break;
    }
    case MsgType::kSnapshotDone: {
      SnapshotDoneMsg msg;
      msg.total_bytes = get_u64(buffer, p);
      msg.wal_records = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
  }
  result.status = DecodeStatus::kOk;
  result.consumed = kHeaderBytes + expected;
  return result;
}

}  // namespace mgrid::serve::wire
