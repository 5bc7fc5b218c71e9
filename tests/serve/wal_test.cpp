#include "serve/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "file_size_limit.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::serve {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path(
        std::string("wal_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::vector<std::uint8_t> file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_bytes(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

wire::LuMsg lu(std::uint32_t mn, double t, double x, double y) {
  wire::LuMsg msg;
  msg.mn = mn;
  msg.seq = static_cast<std::uint32_t>(t);
  msg.t = t;
  msg.x = x;
  msg.y = y;
  msg.vx = 1.0;
  msg.vy = -1.0;
  return msg;
}

TEST_F(WalTest, RoundTripsLusAndTicks) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    EXPECT_TRUE(writer.append(lu(7, 1.0, 10.0, 20.0)));
    EXPECT_TRUE(writer.append(lu(8, 1.0, -3.5, 4.25)));
    EXPECT_TRUE(writer.append_tick(1.0, 1));
    EXPECT_TRUE(writer.append(lu(7, 2.0, 11.0, 21.0)));
    EXPECT_TRUE(writer.append_tick(2.0, 2));
    EXPECT_EQ(writer.records_appended(), 5u);
    EXPECT_FALSE(writer.failed());
  }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  ASSERT_EQ(result.records.size(), 5u);
  ASSERT_EQ(result.record_ends.size(), 5u);
  EXPECT_EQ(result.consistent_bytes, result.record_ends.back());

  const auto* first = std::get_if<wire::LuMsg>(&result.records[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->mn, 7u);
  EXPECT_EQ(first->t, 1.0);
  EXPECT_EQ(first->x, 10.0);
  EXPECT_EQ(first->y, 20.0);
  EXPECT_EQ(first->vx, 1.0);
  EXPECT_EQ(first->vy, -1.0);

  const auto* barrier = std::get_if<wire::TickMsg>(&result.records[2]);
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->t, 1.0);
  EXPECT_EQ(barrier->tick, 1u);

  const auto* last = std::get_if<wire::TickMsg>(&result.records[4]);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->tick, 2u);
}

TEST_F(WalTest, ReopeningAppendsAfterExistingRecords) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 0.0, 0.0)));
  }
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 2.0, 1.0, 1.0)));
    // records_appended counts only this writer's appends.
    EXPECT_EQ(writer.records_appended(), 1u);
  }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST_F(WalTest, TruncatedFrameStopsAtLastCleanRecord) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  const WalReadResult clean = read_wal(path_);
  ASSERT_EQ(clean.records.size(), 2u);
  // Chop the last record mid-frame: a torn tail after a crash.
  bytes.resize(bytes.size() - 7);
  write_bytes(bytes);

  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kTruncated);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.consistent_bytes, clean.record_ends[0]);
  const auto* first = std::get_if<wire::LuMsg>(&result.records[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->mn, 1u);
}

TEST_F(WalTest, BadCrcStopsDeterministically) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
    ASSERT_TRUE(writer.append(lu(3, 1.0, 7.0, 7.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  const WalReadResult clean = read_wal(path_);
  ASSERT_EQ(clean.records.size(), 3u);
  // Flip one payload bit inside the second record.
  bytes[clean.record_ends[0] + 12] ^= 0x01;
  write_bytes(bytes);

  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kBadCrc);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.consistent_bytes, clean.record_ends[0]);
  // Reading again gives the identical answer — the stop is deterministic.
  const WalReadResult again = read_wal(path_);
  EXPECT_EQ(again.status, WalReadStatus::kBadCrc);
  EXPECT_EQ(again.consistent_bytes, result.consistent_bytes);
}

TEST_F(WalTest, GarbageHeaderThrows) {
  write_bytes({'G', 'A', 'R', 'B', 'A', 'G', 'E', '!', 0, 1, 2, 3});
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  // The writer must also refuse: appending to a foreign file would corrupt
  // someone else's data.
  EXPECT_THROW(WalWriter(path_, FsyncPolicy::kNever), std::runtime_error);
}

TEST_F(WalTest, VersionSkewThrows) {
  std::vector<std::uint8_t> header(kWalHeader, kWalHeader + 8);
  header[4] = 99;  // future version byte
  write_bytes(header);
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  EXPECT_THROW(WalWriter(path_, FsyncPolicy::kNever), std::runtime_error);
}

TEST_F(WalTest, ZeroLengthFileThrowsOnReadButWriterAdopts) {
  write_bytes({});
  // A zero-length file has no header: the reader treats it as foreign...
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  // ...but the writer adopts it (fresh header), like a new file.
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 0.0, 0.0)));
  }
  EXPECT_EQ(read_wal(path_).records.size(), 1u);
}

TEST_F(WalTest, HeaderOnlyFileReadsAsEmpty) {
  { WalWriter writer(path_, FsyncPolicy::kNever); }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.consistent_bytes, sizeof(kWalHeader));
}

TEST_F(WalTest, MissingFileThrows) {
  EXPECT_THROW((void)read_wal((dir_ / "nope.log").string()),
               std::runtime_error);
}

TEST_F(WalTest, GarbageBetweenRecordsIsBadCrcNotACrash) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  // Append 64 random-ish bytes: enough for a crc + header, none valid.
  for (int i = 0; i < 64; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(37 * i + 11));
  }
  write_bytes(bytes);
  const WalReadResult result = read_wal(path_);
  EXPECT_NE(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST_F(WalTest, TruncateWalDropsTornTail) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  bytes.resize(bytes.size() - 3);
  write_bytes(bytes);
  const WalReadResult torn = read_wal(path_);
  ASSERT_EQ(torn.status, WalReadStatus::kTruncated);

  ASSERT_TRUE(truncate_wal(path_, torn.consistent_bytes));
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 1u);
  // A writer reopened on the truncated file appends cleanly.
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(2, 2.0, 7.0, 7.0)));
  }
  EXPECT_EQ(read_wal(path_).records.size(), 2u);
}

TEST_F(WalTest, EveryRecordPolicySurvivesRoundTrip) {
  {
    WalWriter writer(path_, FsyncPolicy::kEveryRecord);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append_tick(1.0, 1));
    ASSERT_TRUE(writer.sync());
  }
  EXPECT_EQ(read_wal(path_).records.size(), 2u);
}

TEST_F(WalTest, AppendsStayBufferedUntilTheTickBarrier) {
  WalWriter writer(path_, FsyncPolicy::kNever);
  ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
  ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
  EXPECT_EQ(writer.records_appended(), 2u);
  // Group commit: nothing past the header is in the file yet...
  EXPECT_EQ(file_bytes().size(), sizeof(kWalHeader));
  // ...and the barrier writes the records together with the tick record.
  ASSERT_TRUE(writer.append_tick(1.0, 1));
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<wire::TickMsg>(result.records[2]));
  EXPECT_EQ(result.consistent_bytes,
            sizeof(kWalHeader) + writer.bytes_appended());
}

TEST_F(WalTest, AFullBufferIsWrittenWithoutABarrier) {
  WalWriter writer(path_, FsyncPolicy::kNever);
  // Well past the writer's buffer size, with no tick record.
  constexpr std::uint32_t kLus = 4000;
  for (std::uint32_t mn = 0; mn < kLus; ++mn) {
    ASSERT_TRUE(writer.append(lu(mn, 1.0, 5.0, 5.0)));
  }
  // The file holds a whole-record prefix of the stream, never a torn one.
  const WalReadResult partial = read_wal(path_);
  EXPECT_EQ(partial.status, WalReadStatus::kEnd);
  EXPECT_GT(partial.records.size(), 0u);
  EXPECT_LT(partial.records.size(), kLus);
  ASSERT_TRUE(writer.sync());
  EXPECT_EQ(read_wal(path_).records.size(), kLus);
}

TEST_F(WalTest, WriteFailureSurfacesAtTheBarrier) {
  WalWriter writer(path_, FsyncPolicy::kNever);
  ASSERT_TRUE(writer.append_tick(1.0, 1));
  {
    // The file may not grow past its current size.
    const test::FileSizeLimit limit(file_bytes().size());
    EXPECT_TRUE(writer.append(lu(1, 2.0, 5.0, 5.0)));  // buffered only
    EXPECT_FALSE(writer.failed());
    EXPECT_FALSE(writer.append_tick(2.0, 2));
  }
  EXPECT_TRUE(writer.failed());
  // A failed WAL stays failed: nothing more is appended or written.
  EXPECT_FALSE(writer.append(lu(1, 3.0, 5.0, 5.0)));
  EXPECT_FALSE(writer.append_tick(3.0, 3));
  EXPECT_FALSE(writer.sync());
  EXPECT_EQ(read_wal(path_).records.size(), 1u);
}

TEST(WalCrc, MatchesKnownCrc32cVectors) {
  // RFC 3720 appendix B.4 test vector: 32 zero bytes.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // "123456789" is the classic check value for CRC-32C: 0xE3069283.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(digits, sizeof(digits)), 0xE3069283u);
}

// The WAL file's bytes are frozen (mgrid-wal-v1): header, then
// [crc32c][frame] records. One LU and one tick barrier, pinned as hex.
TEST_F(WalTest, FileBytesArePinned) {
  static constexpr char kPinned[] =
      "4d47574c01000000"  // "MGWL", version 1, pad
      "20b652cc"          // crc32c of the LU frame
      "474d010138000000efbeadded2040000e60efd84454a9340"
      "00000000004031c059f3f8c21f6ea501000000000000f03f"
      "000000000000f0bf000000000000ec3f"
      "ce0dca9f"          // crc32c of the tick frame
      "474d0107100000000000000000229c40efcdab8967452301";
  // A traced LU is logged as the same v1 kLu record: WAL bytes never depend
  // on tracing.
  for (const bool traced : {false, true}) {
    fs::remove(path_);
    {
      WalWriter writer(path_, FsyncPolicy::kNever);
      wire::LuMsg msg = lu(0xDEADBEEF, 1234.5678901234, -17.25, 1e-300);
      msg.battery = 0.875;
      if (traced) {
        msg.trace.trace_id = 0xFEEDFACE01234567ull;
        msg.trace.origin_us = 1000;
        msg.trace.send_us = 2000;
        msg.trace.parent_stage = 1;
      }
      ASSERT_TRUE(writer.append(msg));
      ASSERT_TRUE(writer.append_tick(1800.5, 0x0123456789ABCDEFull));
    }
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const std::uint8_t b : file_bytes()) {
      hex += kDigits[b >> 4];
      hex += kDigits[b & 0xF];
    }
    EXPECT_EQ(hex, kPinned) << (traced ? "traced" : "untraced");
  }
}

// WalWriter never writes a kTracedLu record, but the reader replays one as
// its LU: the frame decodes to an LuMsg like any kLu.
TEST_F(WalTest, ReaderReplaysATracedLuRecordAsItsLu) {
  wire::LuMsg msg = lu(9, 3.0, 1.5, -2.5);
  msg.trace.trace_id = 77;
  std::vector<std::uint8_t> frame;
  wire::encode(frame, msg);
  ASSERT_EQ(frame[3], static_cast<std::uint8_t>(wire::MsgType::kTracedLu));
  std::vector<std::uint8_t> bytes(std::begin(kWalHeader), std::end(kWalHeader));
  const std::uint32_t crc = crc32c(frame.data(), frame.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  write_bytes(bytes);

  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  ASSERT_EQ(result.records.size(), 1u);
  const auto* got = std::get_if<wire::LuMsg>(&result.records[0]);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->mn, 9u);
  EXPECT_EQ(got->t, 3.0);
  EXPECT_EQ(got->x, 1.5);
  EXPECT_EQ(got->y, -2.5);
  EXPECT_EQ(got->trace.trace_id, 77u);
}

/// Bit-at-a-time CRC-32C: the definition the table-driven code must match.
std::uint32_t crc32c_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Slicing-by-8 folds 8 bytes per step with a bytewise tail: every length
// around and across the step boundary, at every alignment, must agree with
// the bitwise definition.
TEST(WalCrc, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  std::vector<std::uint8_t> buffer(300 + 8);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::uint8_t& b : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32c(buffer.data() + offset, len),
                crc32c_bitwise(buffer.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace mgrid::serve
