// Directory snapshots (mgrid-snap-v2).
//
// A snapshot is a point-in-time serialization of every MnTrack in a
// ShardedDirectory — both fixes and the estimator internals, all as raw
// IEEE-754 bit patterns — taken at a tick barrier so it corresponds to an
// exact WAL position. Recovery loads the newest valid snapshot and
// replays only the WAL records after `wal_records`, bounding restart time
// regardless of WAL length.
//
// File layout (little-endian):
//   magic   "MGSN" (4 bytes)
//   version u8 = 2, pad u8[3]
//   wal_records u64   — WAL records covered by this snapshot
//   snap_time f64     — sim-time of the covering tick barrier
//   track_count u32
//   per track: mn u32, word_count u32, f64[word_count] (MnTrack state)
//   crc u32           — crc32c over everything before it
//
// MnTrack state words (MnTrack::save_state):
//   has_report (1), last_reported fix (6), current_view fix (6) — a fix is
//   t, x, y, vx, vy, estimated — then has_estimator (1) and the estimator's
//   own words (brown_polar: 11), so a brown_polar track is 25 words.
// Version 1 carried a fix-history block after the two fixes (a count, then
// 6 words per fix: 74 words per brown_polar track at 8 fixes). A v1 image
// is refused like any damaged snapshot, so recovery falls back to an older
// snapshot or to a full WAL replay.
//
// Snapshots are written atomically (tmp file + rename) and named
// "snap-<wal_records>" so the newest is discoverable by scanning the WAL
// directory. A damaged snapshot fails its CRC and recovery falls back to
// the next-older one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/directory.h"

namespace mgrid::serve {

inline constexpr std::uint8_t kSnapshotMagic[4] = {'M', 'G', 'S', 'N'};
inline constexpr std::uint8_t kSnapshotVersion = 2;

/// Serializes `directory` to `<dir>/snap-<wal_records>` via tmp + rename.
/// Must be called at a tick barrier (no concurrent apply_batch /
/// advance_estimates), with `wal_records` = the WAL writer's record count
/// at that barrier. Returns false on I/O failure or when any track refuses
/// state capture (estimator without save_state support).
bool write_snapshot(const ShardedDirectory& directory, const std::string& dir,
                    std::uint64_t wal_records, double snap_time);

/// Serializes `directory` to an in-memory mgrid-snap-v2 image (the exact
/// bytes write_snapshot() would put on disk) — the cluster layer ships this
/// over the wire to bootstrap followers and hand off shards. Same barrier
/// requirement as write_snapshot(); returns false when any track refuses
/// state capture (`out` is then unspecified).
bool encode_snapshot(const ShardedDirectory& directory,
                     std::uint64_t wal_records, double snap_time,
                     std::vector<std::uint8_t>& out);

/// A parsed snapshot, not yet applied to a directory.
struct SnapshotData {
  std::uint64_t wal_records = 0;
  double snap_time = 0.0;
  struct Track {
    std::uint32_t mn = 0;
    std::vector<double> words;
  };
  std::vector<Track> tracks;
};

/// Loads and validates one snapshot file. Returns false (out unspecified)
/// on any damage: short file, foreign magic, unsupported version, CRC
/// mismatch or inconsistent counts. Never throws on damaged content.
[[nodiscard]] bool load_snapshot(const std::string& path, SnapshotData& out);

/// Parses an in-memory mgrid-snap-v2 image (load_snapshot() minus the
/// file read) — the receiving side of snapshot shipping. Same validation
/// and failure contract as load_snapshot().
[[nodiscard]] bool decode_snapshot(const std::uint8_t* data, std::size_t size,
                                   SnapshotData& out);

/// Applies a parsed snapshot to an *empty* directory. Returns the number of
/// tracks restored; tracks whose state fails validation are skipped (the
/// caller should treat restored < tracks.size() as a damaged snapshot).
std::size_t apply_snapshot(ShardedDirectory& directory,
                           const SnapshotData& snapshot);

/// Paths of "snap-<n>" files in `dir`, newest (largest n) first.
[[nodiscard]] std::vector<std::string> list_snapshots(const std::string& dir);

}  // namespace mgrid::serve
