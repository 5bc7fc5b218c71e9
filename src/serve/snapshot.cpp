#include "serve/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "serve/wal.h"

namespace mgrid::serve {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_u64(p));
}

}  // namespace

bool encode_snapshot(const ShardedDirectory& directory,
                     std::uint64_t wal_records, double snap_time,
                     std::vector<std::uint8_t>& bytes) {
  // Magic, version and three reserved zero bytes, built in a fixed-size
  // array and copied in whole.
  std::array<std::uint8_t, 8> header{};
  std::memcpy(header.data(), kSnapshotMagic, sizeof kSnapshotMagic);
  header[4] = kSnapshotVersion;
  bytes.assign(header.begin(), header.end());
  put_u64(bytes, wal_records);
  put_f64(bytes, snap_time);
  const std::size_t count_offset = bytes.size();
  put_u32(bytes, 0);  // patched below

  std::uint32_t track_count = 0;
  bool capture_failed = false;
  std::vector<double> words;
  directory.for_each_track([&](const broker::MnTrack& track) {
    if (capture_failed) return;
    words.clear();
    if (!track.save_state(words)) {
      capture_failed = true;
      return;
    }
    put_u32(bytes, track.mn());
    put_u32(bytes, static_cast<std::uint32_t>(words.size()));
    for (double w : words) put_f64(bytes, w);
    ++track_count;
  });
  if (capture_failed) return false;

  bytes[count_offset] = static_cast<std::uint8_t>(track_count);
  bytes[count_offset + 1] = static_cast<std::uint8_t>(track_count >> 8);
  bytes[count_offset + 2] = static_cast<std::uint8_t>(track_count >> 16);
  bytes[count_offset + 3] = static_cast<std::uint8_t>(track_count >> 24);
  put_u32(bytes, crc32c(bytes.data(), bytes.size()));
  return true;
}

bool write_snapshot(const ShardedDirectory& directory, const std::string& dir,
                    std::uint64_t wal_records, double snap_time) {
  std::vector<std::uint8_t> bytes;
  if (!encode_snapshot(directory, wal_records, snap_time, bytes)) return false;

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path final_path =
      fs::path(dir) / ("snap-" + std::to_string(wal_records));
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  return true;
}

bool decode_snapshot(const std::uint8_t* data, std::size_t size,
                     SnapshotData& out) {
  // Fixed part: magic(4) + version(1) + pad(3) + wal_records(8) +
  // snap_time(8) + track_count(4) + trailing crc(4).
  constexpr std::size_t kFixedBytes = 4 + 4 + 8 + 8 + 4 + 4;
  if (size < kFixedBytes) return false;
  if (std::memcmp(data, kSnapshotMagic, 4) != 0) return false;
  if (data[4] != kSnapshotVersion) return false;
  const std::uint32_t stored_crc = get_u32(data + size - 4);
  if (crc32c(data, size - 4) != stored_crc) return false;

  out.wal_records = get_u64(data + 8);
  out.snap_time = get_f64(data + 16);
  const std::uint32_t track_count = get_u32(data + 24);
  out.tracks.clear();
  out.tracks.reserve(track_count);
  std::size_t pos = 28;
  const std::size_t body_end = size - 4;
  for (std::uint32_t i = 0; i < track_count; ++i) {
    if (body_end - pos < 8) return false;
    SnapshotData::Track track;
    track.mn = get_u32(data + pos);
    const std::uint32_t word_count = get_u32(data + pos + 4);
    pos += 8;
    if ((body_end - pos) / 8 < word_count) return false;
    track.words.reserve(word_count);
    for (std::uint32_t w = 0; w < word_count; ++w) {
      track.words.push_back(get_f64(data + pos));
      pos += 8;
    }
    out.tracks.push_back(std::move(track));
  }
  return pos == body_end;
}

bool load_snapshot(const std::string& path, SnapshotData& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return decode_snapshot(bytes.data(), bytes.size(), out);
}

std::size_t apply_snapshot(ShardedDirectory& directory,
                           const SnapshotData& snapshot) {
  std::size_t restored = 0;
  for (const SnapshotData::Track& track : snapshot.tracks) {
    const double* it = track.words.data();
    const double* end = it + track.words.size();
    // A valid track consumes exactly its word vector; leftovers mean the
    // state was written by a differently-configured estimator stack.
    if (directory.restore_track(track.mn, it, end) && it == end) {
      ++restored;
    }
  }
  return restored;
}

std::vector<std::string> list_snapshots(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    const std::string tail = name.substr(5);
    if (tail.empty() ||
        tail.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoull(tail), entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [n, path] : found) paths.push_back(std::move(path));
  return paths;
}

}  // namespace mgrid::serve
