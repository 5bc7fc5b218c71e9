#include "cluster/handoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/ring.h"
#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::cluster {
namespace {

namespace fs = std::filesystem;

serve::DirectoryOptions directory_options() {
  serve::DirectoryOptions options;
  options.shards = 4;
  return options;
}

std::unique_ptr<serve::ShardedDirectory> make_directory() {
  return std::make_unique<serve::ShardedDirectory>(
      directory_options(), estimation::make_estimator("brown_polar", 0.3, 1.0));
}

wire::LuMsg walk_lu(std::uint32_t mn, std::uint64_t k) {
  wire::LuMsg lu;
  lu.mn = mn;
  lu.seq = static_cast<std::uint32_t>(k);
  lu.t = static_cast<double>(k);
  lu.x = 100.0 + 3.0 * static_cast<double>(mn) +
         1.7 * static_cast<double>(k) + 0.1 * std::sin(static_cast<double>(k));
  lu.y = 50.0 + 2.0 * static_cast<double>(mn) - 0.9 * static_cast<double>(k);
  lu.vx = 1.7;
  lu.vy = -0.9;
  return lu;
}

/// The origin shard's life: LUs + barriers through a real pipeline with the
/// WAL attached, one snapshot at `snapshot_tick`.
std::unique_ptr<serve::ShardedDirectory> run_origin(
    const std::string& dir, std::uint32_t nodes, std::uint64_t ticks,
    std::uint64_t snapshot_tick) {
  fs::create_directories(dir);
  auto directory = make_directory();
  serve::WalWriter wal(dir + "/wal.log", serve::FsyncPolicy::kNever);
  serve::IngestOptions options;
  options.sources = 3;
  options.workers = 2;
  options.wal = &wal;
  serve::IngestPipeline pipeline(*directory, options);
  for (std::uint64_t k = 1; k <= ticks; ++k) {
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      EXPECT_TRUE(pipeline.submit(walk_lu(mn, k)));
    }
    pipeline.flush();
    wal.append_tick(static_cast<double>(k), k);
    directory->advance_estimates(static_cast<double>(k));
    if (k == snapshot_tick) {
      EXPECT_TRUE(serve::write_snapshot(*directory, dir,
                                        wal.records_appended(),
                                        static_cast<double>(k)));
    }
  }
  pipeline.stop();
  return directory;
}

std::vector<std::uint32_t> all_mns(std::uint32_t count) {
  std::vector<std::uint32_t> mns(count);
  for (std::uint32_t i = 0; i < count; ++i) mns[i] = i;
  return mns;
}

class HandoffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path(
        std::string("handoff_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// The full join flow: a new node enters the ring, the moved tracks are
// bootstrapped from the old owner's snapshot + WAL tail, and land
// bit-identical to the origin — a handoff is a filtered crash recovery.
TEST_F(HandoffTest, JoinHandoffReproducesMovedTracksBitExact) {
  constexpr std::uint32_t kNodes = 64;
  const std::unique_ptr<serve::ShardedDirectory> origin =
      run_origin(dir_, kNodes, /*ticks=*/12, /*snapshot_tick=*/6);

  HashRing before(RingOptions{64});
  before.add_node("a");
  before.add_node("b");
  HashRing after = before;
  after.add_node("c");
  const std::vector<std::uint32_t> moved =
      moved_mns(before, after, all_mns(kNodes));
  ASSERT_FALSE(moved.empty());
  ASSERT_LT(moved.size(), static_cast<std::size_t>(kNodes));

  const std::vector<std::string> snaps = serve::list_snapshots(dir_);
  ASSERT_EQ(snaps.size(), 1u);
  serve::SnapshotData snapshot;
  ASSERT_TRUE(serve::load_snapshot(snaps.front(), snapshot));

  const std::unique_ptr<serve::ShardedDirectory> incoming = make_directory();
  EXPECT_EQ(transfer_tracks(snapshot, moved, *incoming), moved.size());
  const std::int64_t applied = replay_wal_tail(
      dir_ + "/wal.log", snapshot.wal_records, moved, *incoming);
  ASSERT_GT(applied, 0);

  // Exactly the moved tracks exist on the new owner, nothing else.
  EXPECT_EQ(incoming->size(), moved.size());
  for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
    const bool was_moved =
        std::find(moved.begin(), moved.end(), mn) != moved.end();
    const auto got = incoming->lookup(mn);
    EXPECT_EQ(got.has_value(), was_moved) << "mn " << mn;
    if (!was_moved) continue;
    const auto want = origin->lookup(mn);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(got->t, want->t) << "mn " << mn;
    EXPECT_EQ(got->position.x, want->position.x) << "mn " << mn;
    EXPECT_EQ(got->position.y, want->position.y) << "mn " << mn;
    EXPECT_EQ(got->estimated, want->estimated) << "mn " << mn;
  }

  // Estimator state moved intact too: forecasts past the end of the WAL
  // agree bit-for-bit with the origin's.
  origin->advance_estimates(15.0);
  incoming->advance_estimates(15.0);
  for (const std::uint32_t mn : moved) {
    const auto want = origin->lookup(mn);
    const auto got = incoming->lookup(mn);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->position.x, want->position.x) << "mn " << mn;
    EXPECT_EQ(got->position.y, want->position.y) << "mn " << mn;
  }
}

// Without a snapshot the tail is the whole WAL: from_record 0 replays the
// moved tracks' full history.
TEST_F(HandoffTest, WalOnlyHandoffReplaysFromTheStart) {
  constexpr std::uint32_t kNodes = 16;
  const std::unique_ptr<serve::ShardedDirectory> origin =
      run_origin(dir_, kNodes, /*ticks=*/8, /*snapshot_tick=*/0);

  const std::vector<std::uint32_t> moved = {1, 5, 9, 13};
  const std::unique_ptr<serve::ShardedDirectory> incoming = make_directory();
  const std::int64_t applied =
      replay_wal_tail(dir_ + "/wal.log", 0, moved, *incoming);
  // Every moved MN sent one LU per tick (none of them is MN 0).
  EXPECT_EQ(applied, static_cast<std::int64_t>(moved.size() * 8));
  EXPECT_EQ(incoming->size(), moved.size());
  for (const std::uint32_t mn : moved) {
    const auto want = origin->lookup(mn);
    const auto got = incoming->lookup(mn);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->t, want->t) << "mn " << mn;
    EXPECT_EQ(got->position.x, want->position.x) << "mn " << mn;
    EXPECT_EQ(got->position.y, want->position.y) << "mn " << mn;
  }
}

TEST_F(HandoffTest, TransferSkipsTracksAbsentFromTheSnapshot) {
  run_origin(dir_, /*nodes=*/4, /*ticks=*/6, /*snapshot_tick=*/6);
  const std::vector<std::string> snaps = serve::list_snapshots(dir_);
  ASSERT_EQ(snaps.size(), 1u);
  serve::SnapshotData snapshot;
  ASSERT_TRUE(serve::load_snapshot(snaps.front(), snapshot));

  const std::unique_ptr<serve::ShardedDirectory> incoming = make_directory();
  // MNs 100..102 never sent an LU: nothing to move, not an error.
  EXPECT_EQ(transfer_tracks(snapshot, {100, 101, 102}, *incoming), 0u);
  EXPECT_EQ(incoming->size(), 0u);
  // A mixed set restores only the present ones.
  EXPECT_EQ(transfer_tracks(snapshot, {2, 100}, *incoming), 1u);
  EXPECT_EQ(incoming->size(), 1u);
}

TEST_F(HandoffTest, UnreadableWalReportsFailure) {
  const std::unique_ptr<serve::ShardedDirectory> incoming = make_directory();
  EXPECT_EQ(replay_wal_tail(dir_ + "/missing.log", 0, {1, 2}, *incoming), -1);
}

}  // namespace
}  // namespace mgrid::cluster
