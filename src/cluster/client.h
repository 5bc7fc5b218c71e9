// Client side of the mgrid-lu-v1 TCP transport.
//
// FrameConn wraps one connected socket with a buffered frame reader: recv()
// bytes accumulate until wire::decode_frame() yields a whole frame, hostile
// or truncated bytes surface as a typed error instead of a crash, and
// send() retries EINTR / short writes. It is the building block for both
// sides of the cluster plane — ShardClient here, the LU server's
// per-connection loop, and the follower's replication stream.
//
// ShardClient is the router's handle to one shard node: batched LU
// forwarding (fire-and-forget — per-LU acks would halve throughput for no
// information; rejects are visible in the shard's /statusz), tick barriers
// that await the shard's kAck, point lookups and spatial queries whose
// kNeighbor streams are read to the kQueryDone terminator. Not thread-safe:
// the router serializes access per shard.
//
// All blocking calls are bounded by the connect/io timeouts; a timeout or
// peer reset closes the connection and returns failure — the caller decides
// whether to reconnect (the router's health loop does).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace mgrid::cluster {

/// The serving plane's wire protocol, under the name cluster code uses.
namespace wire = serve::wire;

/// Blocking TCP connect with a wall deadline (non-blocking connect +
/// poll()). Returns the connected fd, or -1 with `error` set.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port,
                              double timeout_seconds, std::string& error);

/// One connected socket with a buffered mgrid-lu-v1 frame reader. Owns the
/// fd. Move-only; not thread-safe.
class FrameConn {
 public:
  FrameConn() = default;
  /// Takes ownership of a connected fd and applies `io_timeout_seconds` as
  /// its SO_RCVTIMEO/SO_SNDTIMEO (0 = no timeout).
  FrameConn(int fd, double io_timeout_seconds);
  ~FrameConn();

  FrameConn(FrameConn&& other) noexcept;
  FrameConn& operator=(FrameConn&& other) noexcept;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close();

  /// Relinquishes ownership of the fd without closing it (the LU server
  /// hands a kSubscribe connection to the replication hub this way). Only
  /// valid while the read buffer is empty — handing off buffered bytes
  /// would lose them. Returns -1 (and keeps ownership) otherwise.
  [[nodiscard]] int release();

  /// Sends every byte (EINTR/short-write safe). Closes the connection and
  /// returns false on error.
  bool send(const std::uint8_t* data, std::size_t size);
  bool send(const std::vector<std::uint8_t>& bytes) {
    return send(bytes.data(), bytes.size());
  }

  /// Receives exactly one frame, blocking up to the io timeout. Returns
  /// false on EOF, timeout, reset or a malformed frame (connection closed,
  /// last_error() says why). Timeouts while `idle_ok` is true are reported
  /// without closing — the LU server's poll-for-shutdown loop uses this.
  bool recv_message(wire::Message& out, bool idle_ok = false);

  /// True when the last recv_message(idle_ok=true) failure was only an idle
  /// timeout (connection still open).
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;
  std::size_t buffer_pos_ = 0;  ///< Consumed prefix of buffer_.
  std::string error_;
  bool timed_out_ = false;
};

struct ShardClientOptions {
  std::string name;  ///< Ring node name (diagnostics).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double connect_timeout_seconds = 5.0;
  double io_timeout_seconds = 5.0;
};

/// The router's connection to one shard's LU server.
class ShardClient {
 public:
  explicit ShardClient(ShardClientOptions options);

  [[nodiscard]] const ShardClientOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] bool connected() const noexcept { return conn_.connected(); }

  /// (Re)connects. Idempotent when already connected.
  bool connect(std::string* error = nullptr);
  void close() { conn_.close(); }

  /// Forwards a batch of LUs in one send. No reply expected. Traced
  /// entries (trace.trace_id != 0) go out as kTracedLu frames stamped with
  /// one shared send_us (the batch flushes as a unit, so one timestamp is
  /// exact for every member); untraced ones as plain kLu frames.
  bool send_lus(const std::vector<wire::LuMsg>& batch);

  /// Tick barrier: sends kTick and blocks for the shard's kAck ("all LUs
  /// before the tick are applied and estimates advanced to t").
  bool tick(double t, std::uint64_t tick);

  [[nodiscard]] std::optional<wire::LookupReplyMsg> lookup(std::uint32_t mn,
                                                           double t);

  /// Runs one spatial query and appends the shard's kNeighbor stream to
  /// `out` (order as received). Returns false on transport failure.
  bool query_region(const wire::RegionQueryMsg& query,
                    std::vector<wire::NeighborMsg>& out);
  bool k_nearest(const wire::NearestQueryMsg& query,
                 std::vector<wire::NeighborMsg>& out);

 private:
  bool read_neighbor_stream(std::vector<wire::NeighborMsg>& out);

  ShardClientOptions options_;
  FrameConn conn_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace mgrid::cluster
