#include "cluster/lu_server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "../serve/file_size_limit.h"
#include "cluster/client.h"
#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/ingest.h"
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

/// Deterministic walk (mirrors the recovery tests): every odd tick MN 0
/// skips its LU so estimator forecasts actually fire at the barrier.
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

void expect_identical(const serve::ShardedDirectory& a,
                      const serve::ShardedDirectory& b) {
  const std::vector<serve::DirectoryEntry> sa = a.snapshot();
  const std::vector<serve::DirectoryEntry> sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].mn, sb[i].mn);
    EXPECT_EQ(sa[i].t, sb[i].t) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.x, sb[i].position.x) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.y, sb[i].position.y) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].estimated, sb[i].estimated) << "mn " << sa[i].mn;
  }
}

/// One shard node: directory + pipeline + LU server on an ephemeral port.
struct ShardUnderTest {
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  std::unique_ptr<serve::IngestPipeline> pipeline;
  std::unique_ptr<LuServer> server;

  explicit ShardUnderTest(serve::WalWriter* wal = nullptr) {
    serve::IngestOptions ingest;
    ingest.sources = 3;
    ingest.workers = 2;
    ingest.wal = wal;
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    LuServerHooks hooks;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    hooks.wal = wal;
    server = std::make_unique<LuServer>(LuServerOptions{}, hooks);
    server->start();
  }
  ~ShardUnderTest() {
    server->stop();
    pipeline->stop();
  }
};

ShardClient make_client(const ShardUnderTest& shard) {
  ShardClientOptions options;
  options.name = "test-shard";
  options.port = shard.server->port();
  return ShardClient(options);
}

TEST(LuServer, StreamedTicksMatchLocalPipelineBitExact) {
  const std::string wal_dir = test::scratch_path("lu_server_stream_test");
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  serve::WalWriter wal(wal_dir + "/wal.log", serve::FsyncPolicy::kNever);
  ShardUnderTest shard(&wal);
  ShardClient client = make_client(shard);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  // Reference: the identical stream through a local pipeline + barriers.
  const std::unique_ptr<serve::ShardedDirectory> reference = make_directory();
  serve::IngestOptions ingest;
  ingest.sources = 3;
  ingest.workers = 2;
  serve::IngestPipeline local(*reference, ingest);

  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint64_t kTicks = 10;
  std::uint64_t lus = 0;
  for (std::uint64_t k = 1; k <= kTicks; ++k) {
    std::vector<wire::LuMsg> batch;
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      batch.push_back(walk_lu(mn, k));
      ASSERT_TRUE(local.submit(walk_lu(mn, k)));
    }
    lus += batch.size();
    ASSERT_TRUE(client.send_lus(batch));
    // tick() blocks for the ack, which the server only sends after its
    // barrier — so the two directories are comparable right here.
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
    local.flush();
    reference->advance_estimates(static_cast<double>(k));
  }
  expect_identical(*reference, *shard.directory);

  const LuServerStats stats = shard.server->stats();
  EXPECT_EQ(stats.lus, lus);
  EXPECT_EQ(stats.lus_rejected, 0u);
  EXPECT_EQ(stats.ticks, kTicks);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.bad_frames, 0u);
  // The server WAL'd the full stream: one record per LU plus one per tick.
  EXPECT_EQ(wal.records_appended(), lus + kTicks);

  local.stop();
  fs::remove_all(wal_dir);
}

TEST(LuServer, ABarrierTheWalCannotWriteFailsTheTick) {
  const std::string wal_dir =
      test::scratch_path("lu_server_wal_failure_test");
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  const std::string wal_path = wal_dir + "/wal.log";
  {
    serve::WalWriter wal(wal_path, serve::FsyncPolicy::kNever);
    ShardUnderTest shard(&wal);
    ShardClient client = make_client(shard);
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    ASSERT_TRUE(client.send_lus(
        std::vector<wire::LuMsg>{walk_lu(1, 1), walk_lu(2, 1)}));
    ASSERT_TRUE(client.tick(1.0, 1));
    ASSERT_TRUE(client.send_lus(
        std::vector<wire::LuMsg>{walk_lu(1, 2), walk_lu(2, 2)}));
    {
      // The file may not grow: the tick-2 barrier's write fails.
      const mgrid::test::FileSizeLimit limit(fs::file_size(wal_path));
      EXPECT_FALSE(client.tick(2.0, 2));
    }
    EXPECT_TRUE(wal.failed());
    // The connection survives the failed ack, and later barriers keep
    // failing rather than silently succeeding.
    EXPECT_FALSE(client.tick(3.0, 3));
    EXPECT_EQ(shard.server->stats().ticks, 3u);
  }
  fs::remove_all(wal_dir);
}

TEST(LuServer, LookupRepliesMirrorTheDirectory) {
  ShardUnderTest shard;
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect());

  for (std::uint64_t k = 1; k <= 4; ++k) {
    std::vector<wire::LuMsg> batch;
    for (std::uint32_t mn = 0; mn < 3; ++mn) batch.push_back(walk_lu(mn, k));
    ASSERT_TRUE(client.send_lus(batch));
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
  }

  // Present MN, query at the fix time: the reply is the stored fix.
  const auto entry = shard.directory->lookup(1);
  ASSERT_TRUE(entry.has_value());
  const auto reply = client.lookup(1, entry->t);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->estimated, entry->estimated);
  EXPECT_EQ(reply->t, entry->t);
  EXPECT_EQ(reply->x, entry->position.x);
  EXPECT_EQ(reply->y, entry->position.y);

  // Future query time: the reply is the estimator's belief at t.
  const double future = entry->t + 2.5;
  const auto belief = shard.directory->belief_at(1, future);
  ASSERT_TRUE(belief.has_value());
  const auto forecast = client.lookup(1, future);
  ASSERT_TRUE(forecast.has_value());
  EXPECT_TRUE(forecast->found);
  EXPECT_TRUE(forecast->estimated);
  EXPECT_EQ(forecast->x, belief->x);
  EXPECT_EQ(forecast->y, belief->y);

  // Unknown MN: found == false.
  const auto missing = client.lookup(999, 4.0);
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->found);
  EXPECT_EQ(shard.server->stats().lookups, 3u);
}

TEST(LuServer, SpatialQueriesMirrorTheDirectory) {
  ShardUnderTest shard;
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect());

  for (std::uint64_t k = 1; k <= 3; ++k) {
    std::vector<wire::LuMsg> batch;
    for (std::uint32_t mn = 0; mn < 8; ++mn) batch.push_back(walk_lu(mn, k));
    ASSERT_TRUE(client.send_lus(batch));
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
  }

  const geo::Vec2 center{110.0, 55.0};
  const std::vector<serve::Neighbor> want =
      shard.directory->query_region(center, 25.0, 0);
  ASSERT_FALSE(want.empty());
  std::vector<wire::NeighborMsg> got;
  ASSERT_TRUE(client.query_region({center.x, center.y, 25.0, 0}, got));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mn, want[i].mn);
    EXPECT_EQ(got[i].distance, want[i].distance);
    EXPECT_EQ(got[i].x, want[i].position.x);
    EXPECT_EQ(got[i].y, want[i].position.y);
  }

  const std::vector<serve::Neighbor> nearest =
      shard.directory->k_nearest(center, 3);
  std::vector<wire::NeighborMsg> got_nearest;
  ASSERT_TRUE(client.k_nearest({center.x, center.y, 3}, got_nearest));
  ASSERT_EQ(got_nearest.size(), nearest.size());
  for (std::size_t i = 0; i < nearest.size(); ++i) {
    EXPECT_EQ(got_nearest[i].mn, nearest[i].mn);
    EXPECT_EQ(got_nearest[i].distance, nearest[i].distance);
  }

  const LuServerStats stats = shard.server->stats();
  EXPECT_EQ(stats.region_queries, 1u);
  EXPECT_EQ(stats.nearest_queries, 1u);
  EXPECT_EQ(stats.neighbors_sent, want.size() + nearest.size());
}

TEST(LuServer, GarbageBytesDropTheConnectionNotTheServer) {
  ShardUnderTest shard;

  // A hostile client speaking HTTP at the LU port.
  std::string error;
  const int fd = connect_tcp("127.0.0.1", shard.server->port(), 5.0, error);
  ASSERT_GE(fd, 0) << error;
  FrameConn hostile(fd, 5.0);
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(hostile.send(
      reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size()));
  wire::Message msg;
  EXPECT_FALSE(hostile.recv_message(msg));  // server closed on decode error

  // The server survived: a well-formed client still gets service.
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_TRUE(client.send_lus({walk_lu(5, 1)}));
  ASSERT_TRUE(client.tick(1.0, 1));
  const auto reply = client.lookup(5, 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->found);
  EXPECT_GE(shard.server->stats().bad_frames, 1u);
}

TEST(LuServer, StartRequiresHooksAndStopIsIdempotent) {
  {
    LuServer missing(LuServerOptions{}, LuServerHooks{});
    EXPECT_THROW(missing.start(), std::runtime_error);
  }
  ShardUnderTest shard;
  EXPECT_TRUE(shard.server->running());
  EXPECT_GT(shard.server->port(), 0);
  shard.server->stop();
  shard.server->stop();
  EXPECT_FALSE(shard.server->running());
}

/// Connects an already-created socket to the loopback `port`.
bool connect_loopback(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool wait_for_connections(const LuServer& server, std::uint64_t count) {
  for (int i = 0; i < 200 && server.stats().connections < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server.stats().connections == count;
}

/// True when some thread of this process is blocked in accept() or
/// accept4(), read from the syscall number that leads each
/// /proc/self/task/<tid>/syscall line ("running" for a thread on a CPU).
bool some_thread_in_accept() {
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    std::ifstream in(task.path() / "syscall");
    long number = -1;
    if (!(in >> number)) continue;
#ifdef SYS_accept
    if (number == SYS_accept) return true;
#endif
    if (number == SYS_accept4) return true;
  }
  return false;
}

/// Polls some_thread_in_accept() for up to 5 s.
bool wait_for_thread_in_accept() {
  for (int i = 0; i < 5000; ++i) {
    if (some_thread_in_accept()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The fd-exhaustion scenario, run in a forked child because it lowers the
/// process's RLIMIT_NOFILE and fills its fd table. Returns the child's exit
/// code: 0 on success, otherwise the step that failed.
int accept_under_fd_exhaustion() {
  ShardUnderTest shard;
  const std::uint16_t port = shard.server->port();
  // Both client sockets exist before the table fills; connecting needs no
  // new fd.
  const int primer = ::socket(AF_INET, SOCK_STREAM, 0);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (primer < 0 || client < 0) return 10;
  // start() returns once the accept thread is spawned, not once it blocks
  // in accept(). The primer below relies on the fd slot a blocked accept()
  // has already reserved, so the table may fill only after that.
  if (!wait_for_thread_in_accept()) return 21;
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 11;
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_cur, 256);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 11;
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  if (errno != EMFILE || fillers.empty()) return 12;
  // A blocked accept() reserved its fd slot before the table filled, so
  // the primer connection uses that slot up; every accept() after it
  // fails with EMFILE.
  if (!connect_loopback(primer, port)) return 13;
  if (!wait_for_connections(*shard.server, 1)) return 14;
  // The client connects into the listen backlog while the table is full.
  if (!connect_loopback(client, port)) return 15;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  if (shard.server->stats().connections != 1) return 16;
  for (const int fd : fillers) ::close(fd);
  // With fds free again the same listener accepts the client and serves
  // its barrier.
  FrameConn conn(client, 5.0);
  std::vector<std::uint8_t> frame;
  wire::encode(frame, wire::TickMsg{1.0, 1});
  if (!conn.send(frame)) return 17;
  wire::Message reply;
  if (!conn.recv_message(reply)) return 18;
  const auto* ack = std::get_if<wire::AckMsg>(&reply);
  if (ack == nullptr || ack->status != wire::AckStatus::kOk) return 19;
  ::close(primer);
  return shard.server->stats().connections == 2 ? 0 : 20;
}

TEST(LuServer, AcceptSurvivesFdExhaustion) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(accept_under_fd_exhaustion());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
  // 18 = the listener never recovered: no ack within the I/O timeout;
  // 21 = the accept thread never blocked in accept() within 5 s.
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace mgrid::cluster
