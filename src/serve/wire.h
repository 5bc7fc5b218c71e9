// mgrid-lu-v1: the serving layer's versioned binary wire protocol.
//
// Every frame is an 8-byte header followed by a fixed-size payload whose
// length is determined by the message type:
//
//   offset  size  field
//   0       2     magic   0x4D47 ("MG", little-endian u16)
//   2       1     version (1)
//   3       1     type    (MsgType)
//   4       4     payload_len (little-endian u32; must match the type)
//
// Payloads (all integers little-endian, doubles as IEEE-754 bit patterns):
//
//   kLu (1), 56 bytes:          mn u32, seq u32, t f64, x f64, y f64,
//                               vx f64, vy f64, battery f64
//   kAck (2), 16 bytes:         mn u32, status u8, pad u8[3], t f64
//   kLookup (3), 16 bytes:      mn u32, pad u32, t f64
//   kLookupReply (4), 32 bytes: mn u32, found u8, estimated u8, pad u16,
//                               t f64, x f64, y f64
//   kRegionQuery (5), 32 bytes: x f64, y f64, radius f64, max_results u32,
//                               pad u32
//   kNearestQuery (6), 24 bytes: x f64, y f64, k u32, pad u32
//   kTick (7), 16 bytes:        t f64, tick u64
//
// Cluster extensions (same version — an old decoder rejects them as
// kBadType and drops the connection, which is the desired failure mode for
// a mixed-version cluster):
//
//   kNeighbor (8), 32 bytes:    mn u32, pad u32, distance f64, x f64, y f64
//                               (one spatial-query hit; a query's reply is a
//                               kNeighbor stream closed by kQueryDone)
//   kQueryDone (9), 16 bytes:   count u32, pad u32, t f64
//   kSubscribe (10), 16 bytes:  from_record u64, flags u64
//                               (follower -> primary: stream your per-MN LU
//                               substream; the primary bootstraps the
//                               follower with a snapshot first)
//   kSnapshotChunk (11), VARIABLE payload (<= kMaxChunkBytes): raw bytes of
//                               an mgrid-snap-v2 image, in order
//   kSnapshotDone (12), 16 bytes: total_bytes u64, wal_records u64
//
// Version-2 extension (trace propagation). kTracedLu is the only frame
// whose header carries version 2; every other frame stays version 1, so a
// v1 peer keeps decoding plain traffic unchanged and rejects a traced frame
// cleanly as kBadVersion at the header (it never misparses the payload).
// A v2 decoder accepts both versions. In memory there is one LU message:
// LuMsg carries an optional TraceContext, and encode() picks the frame by
// its trace id — kLu when trace.trace_id == 0, kTracedLu otherwise. Only
// the deterministically sampled slice of LUs is traced, so mixed-version
// clusters interoperate as long as tracing stays off toward old peers:
//
//   kTracedLu (13), 88 bytes:   the kLu payload (56 bytes, same layout),
//                               then trace_id u64, origin_us u64,
//                               send_us u64, parent_stage u32, pad u32
//
// decode_frame() turns both frame types into LuMsg (a kLu frame leaves the
// trace zeroed). It never throws on hostile bytes: it returns a typed status
// (bad magic / version / type / length, or "need more data" for a prefix of
// a valid frame) so a network reader can resynchronise or disconnect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

namespace mgrid::serve::wire {

inline constexpr std::uint16_t kMagic = 0x4D47;  // "MG"
inline constexpr std::uint8_t kVersion = 1;
/// Header version carried only by kTracedLu frames: a v1 decoder rejects
/// them as kBadVersion without touching the payload, a v2 decoder accepts
/// both versions. See the "Version-2 extension" header note.
inline constexpr std::uint8_t kTracedVersion = 2;
inline constexpr std::size_t kHeaderBytes = 8;

enum class MsgType : std::uint8_t {
  kLu = 1,
  kAck = 2,
  kLookup = 3,
  kLookupReply = 4,
  kRegionQuery = 5,
  kNearestQuery = 6,
  /// Tick barrier: "every LU before this frame has been applied; the
  /// directory then advanced its estimates to t". Emitted by the serving
  /// layer's write-ahead log at each flush/advance boundary so recovery can
  /// replay to a consistent cut (see serve/wal.h).
  kTick = 7,
  /// One spatial-query hit (server -> client). A query's reply is a
  /// kNeighbor stream terminated by kQueryDone, so the router can merge
  /// shard replies without knowing result counts up front.
  kNeighbor = 8,
  /// Terminates a kNeighbor stream; `count` echoes the hits sent.
  kQueryDone = 9,
  /// Follower -> primary: subscribe to the primary's LU substream. The
  /// primary bootstraps the subscriber with a snapshot (kSnapshotChunk* +
  /// kSnapshotDone) taken at the next tick barrier, then streams every
  /// subsequent kLu/kTick in WAL order (see cluster/replication.h).
  kSubscribe = 10,
  /// One chunk of an mgrid-snap-v2 image. The only variable-length frame:
  /// payload_len is the chunk size (<= kMaxChunkBytes).
  kSnapshotChunk = 11,
  /// Ends a snapshot transfer; total_bytes lets the receiver verify no
  /// chunk went missing before parsing.
  kSnapshotDone = 12,
  /// A kLu plus its trace context (version-2 frame). Emitted only for the
  /// deterministically sampled LU slice so one sampled update carries its
  /// trace id and upstream timestamps router -> shard -> follower.
  kTracedLu = 13,
};

enum class AckStatus : std::uint8_t {
  kOk = 0,
  kRejected = 1,  ///< LU refused (e.g. timestamp regression).
  kOverload = 2,  ///< Ingestion queue full; sender should back off.
};

/// Trace context propagated alongside a sampled LU. Timestamps are
/// CLOCK_MONOTONIC microseconds (obs::SpanTracer-compatible): comparable
/// across processes on one machine, which is where stage attribution is
/// meaningful; 0 = "not stamped by the sender".
struct TraceContext {
  std::uint64_t trace_id = 0;
  /// When the originating router accepted the LU (before batching).
  std::uint64_t origin_us = 0;
  /// When the batch containing the LU was flushed to the socket.
  std::uint64_t send_us = 0;
  /// static_cast<u32>(obs::LuStage): the sender's last completed stage
  /// (kNet from a router, kVisible from a primary's replication stream).
  std::uint32_t parent_stage = 0;
};

/// A location update on the wire. `seq` is a per-source sequence number the
/// receiver echoes in acks (0 when unused). `trace` is the optional trace
/// context: trace_id == 0 means untraced (a v1 kLu frame), anything else
/// travels as a v2 kTracedLu frame.
struct LuMsg {
  std::uint32_t mn = 0;
  std::uint32_t seq = 0;
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  double battery = 1.0;
  TraceContext trace{};
};

struct AckMsg {
  std::uint32_t mn = 0;
  AckStatus status = AckStatus::kOk;
  double t = 0.0;
};

struct LookupMsg {
  std::uint32_t mn = 0;
  /// Query time the caller wants the belief evaluated at.
  double t = 0.0;
};

struct LookupReplyMsg {
  std::uint32_t mn = 0;
  bool found = false;
  bool estimated = false;
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
};

struct RegionQueryMsg {
  double x = 0.0;
  double y = 0.0;
  double radius = 0.0;
  std::uint32_t max_results = 0;  ///< 0 = unlimited.
};

struct NearestQueryMsg {
  double x = 0.0;
  double y = 0.0;
  std::uint32_t k = 0;
};

/// A tick barrier (WAL only): all preceding LUs were applied, then the
/// directory advanced estimates to `t`. `tick` is the driver's tick index.
struct TickMsg {
  double t = 0.0;
  std::uint64_t tick = 0;
};

/// One spatial-query hit on the wire (mirrors serve::Neighbor).
struct NeighborMsg {
  std::uint32_t mn = 0;
  double distance = 0.0;
  double x = 0.0;
  double y = 0.0;
};

/// Terminates a kNeighbor stream.
struct QueryDoneMsg {
  std::uint32_t count = 0;
  double t = 0.0;
};

/// Follower subscription request. `from_record` is reserved for resuming a
/// broken stream at a WAL position (0 = bootstrap from snapshot); `flags`
/// is reserved and must be 0.
struct SubscribeMsg {
  std::uint64_t from_record = 0;
  std::uint64_t flags = 0;
};

/// One chunk of a snapshot image. The single variable-length message; an
/// encoder may send any chunk size up to kMaxChunkBytes.
struct SnapshotChunkMsg {
  std::vector<std::uint8_t> bytes;
};

/// Ends a snapshot transfer.
struct SnapshotDoneMsg {
  std::uint64_t total_bytes = 0;
  std::uint64_t wal_records = 0;
};

/// Ceiling on a kSnapshotChunk payload; larger declared lengths are
/// kBadLength so a hostile header cannot make a reader buffer gigabytes.
inline constexpr std::size_t kMaxChunkBytes = 1 << 20;

using Message =
    std::variant<std::monostate, LuMsg, AckMsg, LookupMsg, LookupReplyMsg,
                 RegionQueryMsg, NearestQueryMsg, TickMsg, NeighborMsg,
                 QueryDoneMsg, SubscribeMsg, SnapshotChunkMsg,
                 SnapshotDoneMsg>;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  /// The buffer is a proper prefix of a valid frame — read more bytes.
  kNeedMoreData,
  kBadMagic,
  kBadVersion,
  kBadType,
  /// payload_len does not match the fixed size for the type.
  kBadLength,
};

[[nodiscard]] std::string_view to_string(DecodeStatus status) noexcept;
[[nodiscard]] std::string_view to_string(MsgType type) noexcept;

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMoreData;
  /// Bytes consumed from the buffer (header + payload) when status == kOk;
  /// 0 otherwise.
  std::size_t consumed = 0;
  Message msg;

  [[nodiscard]] bool ok() const noexcept {
    return status == DecodeStatus::kOk;
  }
};

/// Sentinel returned by payload_size() for the variable-length type
/// (kSnapshotChunk): the header's payload_len is authoritative, bounded by
/// kMaxChunkBytes.
inline constexpr std::size_t kVariablePayload =
    static_cast<std::size_t>(-1);

/// Fixed payload size for a message type; kVariablePayload for
/// kSnapshotChunk; 0 for an unknown type byte.
[[nodiscard]] std::size_t payload_size(MsgType type) noexcept;

/// Appends one encoded frame to `out`. Returns the frame size in bytes.
/// An LuMsg becomes a kLu frame when msg.trace.trace_id == 0 and a
/// kTracedLu frame otherwise.
std::size_t encode(std::vector<std::uint8_t>& out, const LuMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const AckMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const LookupMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const LookupReplyMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const RegionQueryMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const NearestQueryMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const TickMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const NeighborMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const QueryDoneMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const SubscribeMsg& msg);
/// Fails (returns 0, appends nothing) when msg.bytes > kMaxChunkBytes.
std::size_t encode(std::vector<std::uint8_t>& out, const SnapshotChunkMsg& msg);
std::size_t encode(std::vector<std::uint8_t>& out, const SnapshotDoneMsg& msg);

/// Decodes the frame at the start of `buffer`. Never throws; malformed
/// bytes yield a non-kOk status with consumed == 0 so the caller decides
/// whether to resync or drop the connection.
[[nodiscard]] Decoded decode_frame(std::span<const std::uint8_t> buffer);

}  // namespace mgrid::serve::wire
