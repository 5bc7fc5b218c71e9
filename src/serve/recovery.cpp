#include "serve/recovery.h"

#include <filesystem>
#include <variant>

#include "serve/snapshot.h"

namespace mgrid::serve {

std::unique_ptr<ShardedDirectory> recover_directory(
    const RecoverOptions& options,
    const std::function<std::unique_ptr<ShardedDirectory>()>& make_directory,
    RecoverReport& report) {
  report = RecoverReport{};
  namespace fs = std::filesystem;
  const std::string wal_path =
      (fs::path(options.wal_dir) / options.wal_file).string();
  std::error_code ec;
  if (!fs::exists(wal_path, ec)) {
    return make_directory();
  }
  report.wal_found = true;

  const WalReadResult wal = read_wal(wal_path);
  report.wal_records_total = wal.records.size();
  report.tail_status = wal.status;

  // Pick the newest snapshot that is valid AND consistent with this WAL.
  std::unique_ptr<ShardedDirectory> directory;
  SnapshotData snapshot;
  std::uint64_t skip = 0;
  for (const std::string& path : list_snapshots(options.wal_dir)) {
    SnapshotData candidate;
    if (!load_snapshot(path, candidate) ||
        candidate.wal_records > wal.records.size()) {
      ++report.snapshots_rejected;
      continue;
    }
    auto attempt = make_directory();
    if (apply_snapshot(*attempt, candidate) != candidate.tracks.size()) {
      ++report.snapshots_rejected;
      continue;
    }
    directory = std::move(attempt);
    snapshot = std::move(candidate);
    skip = snapshot.wal_records;
    report.snapshot_loaded = true;
    report.snapshot_path = path;
    break;
  }
  if (!directory) directory = make_directory();
  report.wal_records_skipped = skip;

  // A snapshot is taken at a tick barrier, so its last covered record is
  // that barrier's tick frame — recover the resume tick from it without
  // storing it in the snapshot itself.
  if (skip > 0) {
    if (const auto* tick = std::get_if<wire::TickMsg>(&wal.records[skip - 1])) {
      report.has_barrier = true;
      report.last_tick_t = tick->t;
      report.last_tick = tick->tick;
    }
  }

  // The consistent cut: the last tick record at or after the snapshot
  // boundary (or the boundary itself when no tick follows it).
  std::size_t cut = static_cast<std::size_t>(skip);  // replay [skip, cut)
  if (options.to_tick_boundary) {
    for (std::size_t i = wal.records.size(); i > skip; --i) {
      if (std::holds_alternative<wire::TickMsg>(wal.records[i - 1])) {
        cut = i;
        break;
      }
    }
  } else {
    cut = wal.records.size();
  }

  for (std::size_t i = skip; i < cut; ++i) {
    if (const auto* lu = std::get_if<wire::LuMsg>(&wal.records[i])) {
      if (directory->update(lu->mn, lu->t, {lu->x, lu->y}, {lu->vx, lu->vy})) {
        ++report.lus_applied;
      } else {
        ++report.lus_rejected;
      }
    } else if (const auto* tick =
                   std::get_if<wire::TickMsg>(&wal.records[i])) {
      directory->advance_estimates(tick->t);
      ++report.ticks_replayed;
      report.has_barrier = true;
      report.last_tick_t = tick->t;
      report.last_tick = tick->tick;
    }
    // The writer emits only kLu and kTick. A kTracedLu record decodes to an
    // LuMsg too and replays as its LU; any other frame type is ignored
    // rather than fatal.
  }
  report.trailing_lus_dropped = wal.records.size() - cut;

  report.consistent_records = cut;
  report.consistent_bytes =
      cut == 0 ? sizeof(kWalHeader) : wal.record_ends[cut - 1];
  return directory;
}

}  // namespace mgrid::serve
