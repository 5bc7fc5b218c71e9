#include "serve/recovery.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::serve {
namespace {

namespace fs = std::filesystem;

DirectoryOptions directory_options() {
  DirectoryOptions options;
  options.shards = 4;
  return options;
}

std::unique_ptr<ShardedDirectory> make_directory(
    const std::string& estimator = "brown_polar") {
  return std::make_unique<ShardedDirectory>(
      directory_options(),
      estimator.empty() ? nullptr
                        : estimation::make_estimator(estimator, 0.3, 1.0));
}

/// Deterministic 2-MN-per-shard walk; every odd tick MN 0 skips its LU so
/// estimator forecasts actually fire during advance_estimates.
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

struct LiveRun {
  std::unique_ptr<ShardedDirectory> directory;
  std::uint64_t lus = 0;
};

/// Drives `ticks` ticks through a real pipeline with the WAL attached —
/// exactly the serving driver's write path. snapshot_every > 0 writes a
/// snapshot at those barriers.
LiveRun run_live(const std::string& wal_dir, std::uint32_t nodes,
                 std::uint64_t ticks, std::size_t snapshot_every = 0,
                 const std::string& estimator = "brown_polar") {
  fs::create_directories(wal_dir);
  LiveRun run;
  run.directory = make_directory(estimator);
  WalWriter wal(wal_dir + "/wal.log", FsyncPolicy::kNever);
  IngestOptions options;
  options.sources = 3;
  options.workers = 2;
  options.wal = &wal;
  IngestPipeline pipeline(*run.directory, options);
  for (std::uint64_t k = 1; k <= ticks; ++k) {
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;  // gaps -> estimator forecasts
      EXPECT_TRUE(pipeline.submit(walk_lu(mn, k)));
      ++run.lus;
    }
    pipeline.flush();
    wal.append_tick(static_cast<double>(k), k);
    run.directory->advance_estimates(static_cast<double>(k));
    if (snapshot_every > 0 && k % snapshot_every == 0) {
      EXPECT_TRUE(write_snapshot(*run.directory, wal_dir,
                                 wal.records_appended(),
                                 static_cast<double>(k)));
    }
  }
  pipeline.stop();
  return run;
}

/// Bit-exact comparison: the recovered directory must not deviate by even
/// one ULP (the paper's 0 m recovery deviation requirement).
void expect_identical(const ShardedDirectory& a, const ShardedDirectory& b) {
  const std::vector<DirectoryEntry> sa = a.snapshot();
  const std::vector<DirectoryEntry> sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].mn, sb[i].mn);
    EXPECT_EQ(sa[i].t, sb[i].t) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.x, sb[i].position.x) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.y, sb[i].position.y) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].estimated, sb[i].estimated) << "mn " << sa[i].mn;
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path(
        std::string("recovery_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<ShardedDirectory> recover(RecoverReport& report,
                                            const std::string& estimator =
                                                "brown_polar") {
    RecoverOptions options;
    options.wal_dir = dir_;
    return recover_directory(
        options, [&] { return make_directory(estimator); }, report);
  }

  std::string dir_;
};

TEST_F(RecoveryTest, MissingWalYieldsFreshDirectory) {
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> directory = recover(report);
  EXPECT_FALSE(report.wal_found);
  EXPECT_EQ(directory->size(), 0u);
  EXPECT_FALSE(report.has_barrier);
}

TEST_F(RecoveryTest, WalOnlyRecoveryIsBitIdentical) {
  const LiveRun live = run_live(dir_, 6, 10);
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_TRUE(report.wal_found);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.ticks_replayed, 10u);
  EXPECT_EQ(report.lus_applied, live.lus);
  EXPECT_EQ(report.trailing_lus_dropped, 0u);
  EXPECT_TRUE(report.has_barrier);
  EXPECT_EQ(report.last_tick, 10u);
  expect_identical(*live.directory, *recovered);

  // The estimators recovered bit-identically too: advancing both
  // directories produces the same forecasts.
  live.directory->advance_estimates(13.0);
  recovered->advance_estimates(13.0);
  expect_identical(*live.directory, *recovered);
}

TEST_F(RecoveryTest, SnapshotPlusTailRecoveryIsBitIdentical) {
  const LiveRun live = run_live(dir_, 6, 12, /*snapshot_every=*/5);
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_TRUE(report.snapshot_loaded);
  // Newest snapshot covers tick 10; only ticks 11..12 replay from the WAL.
  EXPECT_EQ(report.ticks_replayed, 2u);
  EXPECT_GT(report.wal_records_skipped, 0u);
  expect_identical(*live.directory, *recovered);

  live.directory->advance_estimates(15.0);
  recovered->advance_estimates(15.0);
  expect_identical(*live.directory, *recovered);
}

TEST_F(RecoveryTest, TrailingPartialTickIsDropped) {
  // 8 full ticks, then LUs of tick 9 with NO barrier (crash mid-tick).
  const LiveRun reference = run_live(dir_ + "_ref", 5, 8);
  {
    const LiveRun live = run_live(dir_, 5, 8);
    WalWriter wal(dir_ + "/wal.log", FsyncPolicy::kNever);
    IngestOptions options;
    options.wal = &wal;
    IngestPipeline pipeline(*live.directory, options);
    for (std::uint32_t mn = 0; mn < 5; ++mn) {
      ASSERT_TRUE(pipeline.submit(walk_lu(mn, 9)));
    }
    pipeline.stop();  // drained, WAL'd — but no tick record follows
  }
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_EQ(report.trailing_lus_dropped, 5u);
  EXPECT_EQ(report.last_tick, 8u);
  EXPECT_EQ(report.tail_status, WalReadStatus::kEnd);
  expect_identical(*reference.directory, *recovered);
  fs::remove_all(dir_ + "_ref");
}

TEST_F(RecoveryTest, CorruptTailRecoversToLastBarrier) {
  const LiveRun reference = run_live(dir_ + "_ref", 5, 8);
  run_live(dir_, 5, 9);
  // Flip a bit inside the tick-9 region: every record of tick 9 after the
  // damage is unreachable, so recovery lands on the tick-8 barrier.
  const std::string wal_path = dir_ + "/wal.log";
  const WalReadResult clean = read_wal(wal_path);
  ASSERT_EQ(clean.status, WalReadStatus::kEnd);
  // Second-to-last record is an LU of tick 9 (the last is the barrier).
  const std::uint64_t target = clean.record_ends[clean.record_ends.size() - 2];
  {
    std::fstream file(wal_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(target - 10));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(target - 10));
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_EQ(report.tail_status, WalReadStatus::kBadCrc);
  EXPECT_EQ(report.last_tick, 8u);
  expect_identical(*reference.directory, *recovered);

  // The reported cut is stable: truncating to it and re-recovering gives
  // the same state (what the serving driver does before reopening the WAL).
  ASSERT_TRUE(truncate_wal(wal_path, report.consistent_bytes));
  RecoverReport again;
  const std::unique_ptr<ShardedDirectory> recovered2 = recover(again);
  EXPECT_EQ(again.tail_status, WalReadStatus::kEnd);
  EXPECT_EQ(again.last_tick, 8u);
  expect_identical(*recovered, *recovered2);
  fs::remove_all(dir_ + "_ref");
}

TEST_F(RecoveryTest, CorruptSnapshotFallsBackToOlderOne) {
  const LiveRun live = run_live(dir_, 6, 12, /*snapshot_every=*/4);
  // Snapshots at ticks 4, 8, 12 exist; damage the newest (largest n).
  const std::vector<std::string> snaps = list_snapshots(dir_);
  ASSERT_EQ(snaps.size(), 3u);
  {
    std::fstream file(snaps.front(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(20);
    byte = static_cast<char>(byte ^ 0x01);
    file.write(&byte, 1);
  }
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshots_rejected, 1u);
  EXPECT_EQ(report.snapshot_path, snaps[1]);  // the tick-8 snapshot
  expect_identical(*live.directory, *recovered);
}

/// Copies the snapshot at `from` to `to` stamped with `version`, CRC
/// re-sealed so the version byte alone decides whether it loads.
void copy_with_version(const std::string& from, const std::string& to,
                       std::uint8_t version) {
  std::ifstream in(from, std::ios::binary);
  std::vector<std::uint8_t> image{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  ASSERT_GT(image.size(), 8u);
  image[4] = version;
  const std::uint32_t crc = crc32c(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

TEST_F(RecoveryTest, Version1SnapshotFallsBackBitIdentical) {
  const LiveRun live = run_live(dir_, 6, 12, /*snapshot_every=*/4);
  const std::vector<std::string> snaps = list_snapshots(dir_);
  ASSERT_EQ(snaps.size(), 3u);
  // The newest file is a version-1 image (the layout with a fix-history
  // block): recovery refuses it and loads the newest v2 snapshot.
  copy_with_version(snaps.front(), dir_ + "/snap-999999999", 1);
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_GE(report.snapshots_rejected, 1u);
  EXPECT_EQ(report.snapshot_path, snaps.front());
  expect_identical(*live.directory, *recovered);
  live.directory->advance_estimates(15.0);
  recovered->advance_estimates(15.0);
  expect_identical(*live.directory, *recovered);

  // With only version-1 images left, recovery replays the whole WAL.
  for (const std::string& snap : snaps) copy_with_version(snap, snap, 1);
  RecoverReport replayed;
  const std::unique_ptr<ShardedDirectory> from_wal = recover(replayed);
  EXPECT_FALSE(replayed.snapshot_loaded);
  EXPECT_EQ(replayed.snapshots_rejected, 4u);
  EXPECT_EQ(replayed.ticks_replayed, 12u);
  from_wal->advance_estimates(15.0);
  expect_identical(*live.directory, *from_wal);
}

TEST_F(RecoveryTest, SnapshotFromWrongConfigurationIsRejected) {
  run_live(dir_, 4, 6, /*snapshot_every=*/3);
  // Recover with estimation disabled: the snapshot carries estimator words
  // the new configuration cannot host, so it must be rejected and the WAL
  // replayed from the start instead of silently mixing configurations.
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered =
      recover(report, /*estimator=*/"");
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshots_rejected, 2u);
  EXPECT_EQ(recovered->size(), 4u);
  EXPECT_EQ(report.ticks_replayed, 6u);
}

TEST_F(RecoveryTest, RecoveredDirectoryResumesAcceptingLus) {
  run_live(dir_, 5, 6);
  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  // Resume the stream exactly where the crash left it: next tick's LUs must
  // apply (no stale rejections — recovery did not overshoot the cut).
  for (std::uint32_t mn = 0; mn < 5; ++mn) {
    EXPECT_TRUE(recovered->update(mn, 7.0, {0.0, 0.0}, {0.0, 0.0}))
        << "mn " << mn;
  }
}

// The crash-cut stream: enough MNs that one tick overflows the WAL's
// write buffer, so part of an unfinished tick reaches the file.
constexpr std::uint32_t kCutNodes = 2000;
constexpr std::uint64_t kCutTicks = 3;
constexpr std::uint32_t kCutPartial = 1999;  ///< LUs of tick kCutTicks + 1

/// Child side of the crash-cut test: kCutTicks complete ticks through a
/// pipeline with a kNever WAL, then most of the next tick, then SIGKILL —
/// no destructors, no sync, whatever the WAL buffer holds is lost.
[[noreturn]] void run_until_killed(const std::string& wal_dir) {
  fs::create_directories(wal_dir);
  const std::unique_ptr<ShardedDirectory> directory = make_directory();
  WalWriter wal(wal_dir + "/wal.log", FsyncPolicy::kNever);
  IngestOptions options;
  options.sources = 3;
  options.workers = 2;
  options.wal = &wal;
  IngestPipeline pipeline(*directory, options);
  for (std::uint64_t k = 1; k <= kCutTicks + 1; ++k) {
    for (std::uint32_t mn = 0; mn < kCutNodes; ++mn) {
      if (k == kCutTicks + 1 && mn == kCutPartial) break;
      if (mn == 0 && k % 2 == 1) continue;
      if (!pipeline.submit(walk_lu(mn, k))) ::_exit(2);
    }
    pipeline.flush();
    if (k == kCutTicks + 1) break;
    if (!wal.append_tick(static_cast<double>(k), k)) ::_exit(3);
    directory->advance_estimates(static_cast<double>(k));
  }
  ::kill(::getpid(), SIGKILL);
  ::_exit(4);  // unreachable
}

TEST_F(RecoveryTest, SigkillMidTickRecoversToTheLastBarrier) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) run_until_killed(dir_);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child ended with status " << status;

  // The file ends on whole records: group commit never writes a torn one.
  const WalReadResult wal = read_wal(dir_ + "/wal.log");
  EXPECT_TRUE(wal.status == WalReadStatus::kEnd ||
              wal.status == WalReadStatus::kTruncated)
      << to_string(wal.status);

  RecoverReport report;
  const std::unique_ptr<ShardedDirectory> recovered = recover(report);
  EXPECT_TRUE(report.has_barrier);
  EXPECT_EQ(report.last_tick, kCutTicks);
  EXPECT_EQ(report.ticks_replayed, kCutTicks);
  // The buffer filled mid-tick, so part of the unfinished tick reached the
  // file; recovery drops it.
  EXPECT_GT(report.trailing_lus_dropped, 0u);

  // Serial reference at the last barrier: no pipeline, no WAL.
  const std::unique_ptr<ShardedDirectory> reference = make_directory();
  for (std::uint64_t k = 1; k <= kCutTicks; ++k) {
    for (std::uint32_t mn = 0; mn < kCutNodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      const wire::LuMsg lu = walk_lu(mn, k);
      ASSERT_TRUE(
          reference->update(lu.mn, lu.t, {lu.x, lu.y}, {lu.vx, lu.vy}));
    }
    reference->advance_estimates(static_cast<double>(k));
  }
  expect_identical(*reference, *recovered);
}

TEST_F(RecoveryTest, GroupCommitWritesThePerRecordEncoding) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  // Reference: the header, then [crc32c][frame] per record, one at a time.
  std::vector<std::uint8_t> expected(kWalHeader,
                                     kWalHeader + sizeof(kWalHeader));
  const auto encode_record = [&expected](const auto& msg) {
    std::vector<std::uint8_t> frame;
    wire::encode(frame, msg);
    const std::uint32_t crc = crc32c(frame.data(), frame.size());
    for (int shift = 0; shift < 32; shift += 8) {
      expected.push_back(static_cast<std::uint8_t>(crc >> shift));
    }
    expected.insert(expected.end(), frame.begin(), frame.end());
  };

  WalWriter wal(path, FsyncPolicy::kNever);
  for (std::uint64_t k = 1; k <= kCutTicks + 1; ++k) {
    for (std::uint32_t mn = 0; mn < kCutNodes; ++mn) {
      if (k == kCutTicks + 1 && mn == kCutPartial) break;
      if (mn == 0 && k % 2 == 1) continue;
      ASSERT_TRUE(wal.append(walk_lu(mn, k)));
      encode_record(walk_lu(mn, k));
    }
    if (k == kCutTicks + 1) break;
    ASSERT_TRUE(wal.append_tick(static_cast<double>(k), k));
    encode_record(wire::TickMsg{static_cast<double>(k), k});
  }
  // sync() writes the unfinished tick's buffered records too.
  ASSERT_TRUE(wal.sync());

  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> written{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
  ASSERT_EQ(written.size(), expected.size());
  EXPECT_TRUE(written == expected);
  EXPECT_EQ(wal.bytes_appended(), expected.size() - sizeof(kWalHeader));
}

TEST(SnapshotTest, ListSnapshotsOrdersNewestFirst) {
  const std::string dir = test::scratch_path("snapshot_list_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name : {"snap-5", "snap-40", "snap-9", "not-a-snap"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  const std::vector<std::string> snaps = list_snapshots(dir);
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_NE(snaps[0].find("snap-40"), std::string::npos);
  EXPECT_NE(snaps[1].find("snap-9"), std::string::npos);
  EXPECT_NE(snaps[2].find("snap-5"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mgrid::serve
