// Shard handoff: moving exactly the tracks a ring change reassigns.
//
// When a node joins or leaves, the consistent-hash ring moves only the keys
// that node gains or loses (cluster/ring.h); moved_mns() on the before/after
// rings names them. The new owner bootstraps each moved track from the old
// owner's durable state — the same snapshot + WAL-tail recipe crash
// recovery uses (serve/recovery.h), so a handoff is just a *filtered*
// recovery:
//
//   1. take (or fetch) the old owner's mgrid-snap-v2 image, restore only
//      the moved tracks (transfer_tracks);
//   2. replay the old owner's WAL records after the snapshot's cut,
//      filtered to the moved MNs (replay_wal_tail) — per-MN LU order is
//      preserved, so the moved tracks land bit-identical to the origin.
//
// The driver sequences the cutover (quiesce traffic for the moved range,
// transfer, flip the ring, resume); these helpers make each step exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/directory.h"
#include "serve/snapshot.h"

namespace mgrid::cluster {

/// Restores into `to` only the `mns` tracks of a parsed snapshot. Returns
/// the number restored (tracks absent from the snapshot are not an error —
/// an MN that never sent an LU has no state to move).
std::size_t transfer_tracks(const serve::SnapshotData& snapshot,
                            const std::vector<std::uint32_t>& mns,
                            serve::ShardedDirectory& to);

/// Replays a WAL file's records after `from_record` into `to`, filtered to
/// the `mns` set: matching kLu records apply serially, kTick barriers
/// advance estimates (all barriers apply — the tick schedule is global).
/// Returns the number of LUs applied; -1 when the WAL cannot be read.
std::int64_t replay_wal_tail(const std::string& wal_path,
                             std::uint64_t from_record,
                             const std::vector<std::uint32_t>& mns,
                             serve::ShardedDirectory& to);

}  // namespace mgrid::cluster
