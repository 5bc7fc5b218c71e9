// Write-ahead log for the serving plane (mgrid-wal-v1).
//
// Durability contract: every LU admitted by the ingest pipeline is appended
// to the WAL in queue order, and every tick barrier (flush +
// advance_estimates) is recorded as a kTick frame. The writer group-commits:
// records are encoded into one in-memory buffer that reaches the file when
// it fills, at every tick barrier, on sync() and on destruction. A kTick
// record therefore reaches the file only after every record before it, so
// the file always ends on a consistent prefix of the log. Records after the
// last barrier may be lost in a crash; recovery drops them anyway (it
// replays only up to the last complete kTick). Because directory state is a
// pure function of the per-MN LU substreams plus the tick schedule (see
// serve/replay.h), serially replaying the WAL reproduces the directory
// bit-identically at that barrier — for any worker count the live process
// used.
//
// A write error surfaces at the call that writes the buffer — usually
// append_tick() — and marks the writer failed for good.
//
// File layout:
//   [8-byte header: "MGWL" magic, version u8 = 1, 3 pad bytes]
//   repeated records: [u32 crc32c of frame][mgrid-lu-v1 wire frame]
// where the frame is a kLu or kTick message exactly as it would travel on
// the wire (wire.h). The CRC covers the whole frame including its header.
//
// Torn tails are expected after a crash: the reader stops deterministically
// at the first truncated, CRC-damaged or undecodable record and reports how
// many clean bytes precede it, so a recovering process can truncate the
// file to the consistent prefix before appending again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace mgrid::serve {

/// CRC-32C (Castagnoli), portable slicing-by-8 tables. Public for tests.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);

/// When the writer calls fsync(2).
enum class FsyncPolicy : std::uint8_t {
  kNever = 0,      ///< rely on the page cache (benchmarks, tests)
  kEveryTick = 1,  ///< once per tick barrier — the production default
  kEveryRecord = 2 ///< paranoid; throughput drops by orders of magnitude
};

[[nodiscard]] const char* to_string(FsyncPolicy policy) noexcept;

/// Appends CRC-framed wire records to a WAL file. Thread-safe: append() may
/// be called concurrently from ingest submit paths (each append is atomic
/// under an internal mutex). Lock ordering: callers holding a source-queue
/// lock may call append(); the WAL never calls back out.
class WalWriter {
 public:
  /// Opens (or creates) `path` for appending. When the file is empty a
  /// fresh header is written; when it already has content the caller is
  /// expected to have truncated it to a consistent prefix (recovery does
  /// this). Throws std::runtime_error on I/O errors or a foreign header.
  explicit WalWriter(const std::string& path,
                     FsyncPolicy policy = FsyncPolicy::kEveryTick);
  /// Writes the buffered records, fsyncs and closes.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one LU record — always a v1 kLu frame; msg.trace is dropped —
  /// and the buffer goes to the file once it is full (every record under
  /// kEveryRecord). Returns false once the WAL has failed (then every later
  /// call fails too).
  bool append(const wire::LuMsg& msg);
  /// Appends one tick-barrier record and writes the buffer, so the barrier
  /// and everything before it are in the file on return; then fsyncs under
  /// kEveryTick. Returns false on a write or fsync failure.
  bool append_tick(double t, std::uint64_t tick);

  /// Writes the buffer and forces an fsync regardless of policy. Returns
  /// false on failure.
  bool sync();

  /// Records appended by *this writer* (excludes pre-existing content),
  /// buffered ones included.
  [[nodiscard]] std::uint64_t records_appended() const noexcept;
  /// Bytes appended by this writer, buffered ones included.
  [[nodiscard]] std::uint64_t bytes_appended() const noexcept;
  /// True once any write or sync has failed.
  [[nodiscard]] bool failed() const noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] FsyncPolicy policy() const noexcept { return policy_; }

 private:
  /// Encodes `[crc32c][frame]` for `msg` at the end of buffer_.
  template <typename Msg>
  bool append_locked(const Msg& msg);
  bool write_buffer_locked();
  bool sync_locked();

  std::string path_;
  FsyncPolicy policy_;
  int fd_ = -1;
  mutable std::mutex mutex_;
  /// Encoded records not yet written to fd_.
  std::vector<std::uint8_t> buffer_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool failed_ = false;
};

/// Why a WAL read pass stopped.
enum class WalReadStatus : std::uint8_t {
  kEnd = 0,        ///< clean end of file
  kTruncated = 1,  ///< partial record at the tail
  kBadCrc = 2,     ///< CRC mismatch (torn or bit-rotted record)
  kBadFrame = 3,   ///< CRC fine but the frame does not decode
};

[[nodiscard]] const char* to_string(WalReadStatus status) noexcept;

/// Result of reading a WAL file.
struct WalReadResult {
  /// Decoded records in file order (each a wire::LuMsg or wire::TickMsg).
  std::vector<wire::Message> records;
  /// Why reading stopped.
  WalReadStatus status = WalReadStatus::kEnd;
  /// Byte offset of the end of the last clean record (== the consistent
  /// prefix length, including the 8-byte file header). A recovering writer
  /// truncates the file to this offset.
  std::uint64_t consistent_bytes = 0;
  /// Byte offset just past record i (record_ends[i]); recovery uses this to
  /// truncate to a *tick-boundary* cut rather than merely the last clean
  /// record.
  std::vector<std::uint64_t> record_ends;
};

/// Reads a WAL file front to back, stopping deterministically at the first
/// damaged record. Never throws on damaged *content*; throws
/// std::runtime_error only when the file cannot be opened or its 8-byte
/// header is missing/foreign (wrong magic or unsupported version).
[[nodiscard]] WalReadResult read_wal(const std::string& path);

/// Truncates `path` to `bytes` (used after recovery to drop a torn tail).
/// Returns false on failure.
bool truncate_wal(const std::string& path, std::uint64_t bytes);

/// The 8-byte mgrid-wal-v1 file header. Public for tests.
inline constexpr std::uint8_t kWalHeader[8] = {'M', 'G', 'W', 'L',
                                               1,   0,   0,   0};

}  // namespace mgrid::serve
