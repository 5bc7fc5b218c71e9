#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/location_core.h"
#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/wal.h"

namespace mgrid::serve {
namespace {

/// One brown_polar MN: two LUs, then one forecast.
std::unique_ptr<ShardedDirectory> small_directory() {
  DirectoryOptions options;
  options.shards = 1;
  auto directory = std::make_unique<ShardedDirectory>(
      options, estimation::make_estimator("brown_polar"));
  EXPECT_TRUE(directory->update(7, 1.0, {10.0, 20.0}, {1.0, 0.5}));
  EXPECT_TRUE(directory->update(7, 2.0, {11.5, 20.25}, {1.5, 0.25}));
  EXPECT_EQ(directory->advance_estimates(3.0), 1u);
  return directory;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Rewrites the version byte and re-seals the CRC, so the version alone
/// decides whether the image decodes.
void set_version(std::vector<std::uint8_t>& image, std::uint8_t version) {
  image[4] = version;
  const std::uint32_t crc = crc32c(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// The mgrid-snap-v2 image bytes are frozen: header, one track record of 25
// words, crc.
TEST(Snapshot, ImageBytesArePinned) {
  static constexpr char kPinned[] =
      "4d47534e02000000"  // "MGSN", version 2, pad
      "0500000000000000"  // wal_records 5
      "0000000000000840"  // snap_time 3.0
      "01000000"          // one track
      "0700000019000000"  // mn 7, 25 words
      "000000000000f03f"  // has_report
      // last_reported: t, x, y, vx, vy, estimated
      "000000000000004000000000000027400000000000403440"
      "000000000000f83f000000000000d03f0000000000000000"
      // current_view: the forecast at t = 3
      "0000000000000840b278f3f5ccce2940f10b585833923440"
      "00000000000000000000000000000000000000000000f03f"
      "000000000000f03f"  // has_estimator
      // brown_polar state, 11 words
      "161e830b2e77f43f07d2c22e5aebf23f0000000000000040"
      "c2f579ea2808d63f4a6c6bc7e79dda3f0000000000000040"
      "000000000000f03f00000000000000400000000000002740"
      "0000000000403440de9a3c849723c53f"
      "72d967c7";  // crc32c
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(encode_snapshot(*small_directory(), 5, 3.0, image));
  EXPECT_EQ(hex(image), kPinned);
}

TEST(Snapshot, BrownPolarTrackIs25Words) {
  const std::unique_ptr<ShardedDirectory> directory = small_directory();
  std::size_t tracks = 0;
  directory->for_each_track([&tracks](const broker::MnTrack& track) {
    std::vector<double> words;
    ASSERT_TRUE(track.save_state(words));
    // has_report, two 6-word fixes, has_estimator, 11 estimator words.
    EXPECT_EQ(words.size(), 25u);
    ++tracks;
  });
  EXPECT_EQ(tracks, 1u);

  std::vector<std::uint8_t> image;
  ASSERT_TRUE(encode_snapshot(*directory, 5, 3.0, image));
  // 28 header bytes, mn + word count + 25 words, 4 crc bytes.
  EXPECT_EQ(image.size(), 28u + 8u + 25u * 8u + 4u);
}

TEST(Snapshot, DecodeRefusesAVersion1Header) {
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(encode_snapshot(*small_directory(), 5, 3.0, image));
  SnapshotData data;
  ASSERT_TRUE(decode_snapshot(image.data(), image.size(), data));
  ASSERT_EQ(data.tracks.size(), 1u);

  set_version(image, 1);
  EXPECT_FALSE(decode_snapshot(image.data(), image.size(), data));
  // The same bytes under the current version decode again.
  set_version(image, kSnapshotVersion);
  EXPECT_TRUE(decode_snapshot(image.data(), image.size(), data));
}

}  // namespace
}  // namespace mgrid::serve
