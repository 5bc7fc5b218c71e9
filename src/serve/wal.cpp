#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace mgrid::serve {

namespace {

struct WalMetrics {
  obs::Counter records;
  obs::Counter bytes;
  obs::Counter syncs;

  explicit WalMetrics(obs::MetricsRegistry& registry) {
    records = registry.counter("mgrid_wal_records_total", {},
                               "Records appended to the write-ahead log");
    bytes = registry.counter("mgrid_wal_bytes_total", {},
                             "Bytes appended to the write-ahead log");
    syncs = registry.counter("mgrid_wal_syncs_total", {},
                             "fsync(2) calls issued by the WAL writer");
  }
};

WalMetrics& wal_metrics() { return obs::instruments<WalMetrics>(); }

// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// same checksum used by iSCSI/ext4, in portable software (no SSE4.2) so the
// WAL stays dependency-free. Slicing-by-8: table k maps a byte to its CRC
// contribution k bytes further along the stream, so one step folds 8 input
// bytes with 8 independent lookups instead of 8 dependent ones. Tables are
// built at compile time.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

// The writer's buffer goes to the file once it holds this many bytes: a
// few write(2) calls per tick at 200k LU/s, and a bounded write under the
// caller's source-queue lock.
constexpr std::size_t kFlushBytes = 64 * 1024;

void store_u32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) {
  const Crc32cTables& t = kCrc32cTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ get_u32_le(data);
    const std::uint32_t hi = get_u32_le(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

const char* to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kEveryTick:
      return "every_tick";
    case FsyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "unknown";
}

const char* to_string(WalReadStatus status) noexcept {
  switch (status) {
    case WalReadStatus::kEnd:
      return "end";
    case WalReadStatus::kTruncated:
      return "truncated";
    case WalReadStatus::kBadCrc:
      return "bad_crc";
    case WalReadStatus::kBadFrame:
      return "bad_frame";
  }
  return "unknown";
}

WalWriter::WalWriter(const std::string& path, FsyncPolicy policy)
    : path_(path), policy_(policy) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("WalWriter: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("WalWriter: fstat failed for " + path);
  }
  if (st.st_size == 0) {
    if (!write_all(fd_, kWalHeader, sizeof(kWalHeader))) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("WalWriter: cannot write header to " + path);
    }
  } else {
    // Appending to an existing file: verify it really is an mgrid-wal-v1
    // file so we never corrupt some unrelated file handed to us by mistake.
    std::ifstream in(path, std::ios::binary);
    std::array<char, sizeof(kWalHeader)> header{};
    in.read(header.data(), header.size());
    if (!in ||
        std::memcmp(header.data(), kWalHeader, 4) != 0 ||
        static_cast<std::uint8_t>(header[4]) != kWalHeader[4]) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("WalWriter: " + path +
                               " is not an mgrid-wal-v1 file");
    }
  }
  // One record of headroom: the buffer is written once it crosses
  // kFlushBytes, so it never grows past that by more than one record.
  buffer_.reserve(kFlushBytes + 1024);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    (void)write_buffer_locked();
    ::fsync(fd_);
    ::close(fd_);
  }
}

template <typename Msg>
bool WalWriter::append_locked(const Msg& msg) {
  if (failed_ || fd_ < 0) return false;
  // [u32 crc32c][frame]: reserve the CRC slot, encode the frame behind it,
  // then fill the slot in.
  const std::size_t start = buffer_.size();
  buffer_.resize(start + 4);
  wire::encode(buffer_, msg);
  const std::size_t record_bytes = buffer_.size() - start;
  store_u32_le(buffer_.data() + start,
               crc32c(buffer_.data() + start + 4, record_bytes - 4));
  records_ += 1;
  bytes_ += record_bytes;
  if (obs::enabled()) {
    WalMetrics& metrics = wal_metrics();
    metrics.records.inc();
    metrics.bytes.inc(record_bytes);
  }
  if (policy_ == FsyncPolicy::kEveryRecord) {
    return write_buffer_locked() && sync_locked();
  }
  if (buffer_.size() >= kFlushBytes) return write_buffer_locked();
  return true;
}

bool WalWriter::write_buffer_locked() {
  if (failed_ || fd_ < 0) return false;
  if (buffer_.empty()) return true;
  const bool written = write_all(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
  if (!written) failed_ = true;
  return written;
}

bool WalWriter::sync_locked() {
  if (failed_ || fd_ < 0) return false;
  if (::fsync(fd_) != 0) {
    failed_ = true;
    return false;
  }
  if (obs::enabled()) wal_metrics().syncs.inc();
  return true;
}

bool WalWriter::append(const wire::LuMsg& msg) {
  // The log holds v1 kLu records only: a traced LU is logged without its
  // trace context, so WAL bytes never depend on tracing.
  wire::LuMsg plain = msg;
  plain.trace = {};
  std::lock_guard<std::mutex> lock(mutex_);
  return append_locked(plain);
}

bool WalWriter::append_tick(double t, std::uint64_t tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The barrier goes out in the same write as the records before it, so
  // the file never holds a kTick whose tick is incomplete.
  if (!append_locked(wire::TickMsg{t, tick}) || !write_buffer_locked()) {
    return false;
  }
  if (policy_ == FsyncPolicy::kEveryTick) return sync_locked();
  return true;
}

bool WalWriter::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_buffer_locked() && sync_locked();
}

std::uint64_t WalWriter::records_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::bytes_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

bool WalWriter::failed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

WalReadResult read_wal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_wal: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.size() < sizeof(kWalHeader)) {
    throw std::runtime_error("read_wal: " + path +
                             " is too short to be a WAL file");
  }
  if (std::memcmp(bytes.data(), kWalHeader, 4) != 0) {
    throw std::runtime_error("read_wal: " + path + " has a foreign header");
  }
  if (bytes[4] != kWalHeader[4]) {
    throw std::runtime_error("read_wal: " + path +
                             " has unsupported WAL version " +
                             std::to_string(bytes[4]));
  }

  WalReadResult result;
  std::size_t pos = sizeof(kWalHeader);
  result.consistent_bytes = pos;
  while (pos < bytes.size()) {
    // [u32 crc][frame]: we need at least the CRC plus a frame header to
    // know the record length.
    if (bytes.size() - pos < 4 + wire::kHeaderBytes) {
      result.status = WalReadStatus::kTruncated;
      return result;
    }
    const std::uint32_t stored_crc = get_u32_le(bytes.data() + pos);
    const std::uint8_t* frame = bytes.data() + pos + 4;
    const std::size_t avail = bytes.size() - pos - 4;
    const wire::Decoded decoded =
        wire::decode_frame(std::span<const std::uint8_t>(frame, avail));
    if (decoded.status == wire::DecodeStatus::kNeedMoreData) {
      result.status = WalReadStatus::kTruncated;
      return result;
    }
    if (!decoded.ok()) {
      result.status = WalReadStatus::kBadFrame;
      return result;
    }
    if (crc32c(frame, decoded.consumed) != stored_crc) {
      result.status = WalReadStatus::kBadCrc;
      return result;
    }
    result.records.push_back(decoded.msg);
    pos += 4 + decoded.consumed;
    result.consistent_bytes = pos;
    result.record_ends.push_back(pos);
  }
  result.status = WalReadStatus::kEnd;
  return result;
}

bool truncate_wal(const std::string& path, std::uint64_t bytes) {
  return ::truncate(path.c_str(), static_cast<off_t>(bytes)) == 0;
}

}  // namespace mgrid::serve
