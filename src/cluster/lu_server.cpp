#include "cluster/lu_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <variant>

namespace mgrid::cluster {

LuServer::LuServer(LuServerOptions options, LuServerHooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.poll_seconds <= 0.0) options_.poll_seconds = 0.25;
}

LuServer::~LuServer() { stop(); }

void LuServer::start() {
  if (running_.load() || stopped_) {
    throw std::runtime_error("LuServer: already started");
  }
  if (hooks_.directory == nullptr || hooks_.pipeline == nullptr) {
    throw std::runtime_error("LuServer: directory and pipeline are required");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("LuServer socket: ") +
                             std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("LuServer: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("LuServer bind: " + error);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("LuServer listen: " + error);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_main(); });
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void LuServer::stop() {
  if (stopped_ || !running_.load()) {
    stopped_ = true;
    return;
  }
  stopping_.store(true);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  work_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
  stopped_ = true;
}

bool LuServer::running() const noexcept { return running_.load(); }

LuServerStats LuServer::stats() const {
  LuServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
  s.lus = lus_.load(std::memory_order_relaxed);
  s.lus_rejected = lus_rejected_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.region_queries = region_queries_.load(std::memory_order_relaxed);
  s.nearest_queries = nearest_queries_.load(std::memory_order_relaxed);
  s.neighbors_sent = neighbors_sent_.load(std::memory_order_relaxed);
  s.subscribes = subscribes_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return s;
}

void LuServer::accept_main() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Only stop() ends the loop. Anything else (EMFILE/ENFILE under fd
      // exhaustion, ECONNABORTED) is transient: back off briefly so a full
      // fd table neither kills the listener nor becomes a busy spin.
      if (stopping_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool rejected = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() >= options_.max_queued_connections) {
        rejected = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (rejected) {
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    work_cv_.notify_one();
  }
}

void LuServer::worker_main() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_.load() || !pending_.empty(); });
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else if (stopping_.load()) {
        return;
      }
    }
    if (fd >= 0) serve_connection(fd);
  }
}

void LuServer::serve_connection(int fd) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    active_.insert(fd);
  }
  {
    FrameConn conn(fd, options_.poll_seconds);
    std::vector<std::uint8_t> reply;  // reused by every reply on this fd
    bool handed_off = false;
    while (!handed_off) {
      wire::Message msg;
      if (!conn.recv_message(msg, /*idle_ok=*/true)) {
        if (conn.timed_out()) {
          if (stopping_.load()) break;
          continue;  // idle connection; poll again
        }
        if (conn.last_error().rfind("bad frame", 0) == 0) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      if (!dispatch(conn, msg, reply, handed_off)) break;
    }
    // conn's destructor closes the fd unless dispatch released it.
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(fd);
}

bool LuServer::dispatch(FrameConn& conn, wire::Message& msg,
                        std::vector<std::uint8_t>& reply, bool& handed_off) {
  if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
    lus_.fetch_add(1, std::memory_order_relaxed);
    if (!hooks_.pipeline->submit(*lu)) {
      lus_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  if (const auto* tick = std::get_if<wire::TickMsg>(&msg)) {
    bool logged = true;
    {
      // The single-process driver's barrier sequence, verbatim: flush (all
      // accepted LUs applied and WAL'd), tick record, estimate advance —
      // then replication, which snapshots/streams this exact state.
      const std::lock_guard<std::mutex> barrier(barrier_mutex_);
      hooks_.pipeline->flush();
      if (hooks_.wal != nullptr) {
        logged = hooks_.wal->append_tick(tick->t, tick->tick);
      }
      hooks_.directory->advance_estimates(tick->t);
      if (hooks_.replication != nullptr) {
        hooks_.replication->on_tick(
            tick->t, tick->tick,
            hooks_.wal != nullptr ? hooks_.wal->records_appended() : 0);
      }
      if (hooks_.on_tick) hooks_.on_tick(tick->t, tick->tick);
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);
    // The directory advanced either way, but a barrier the WAL could not
    // write is not durable: the router must see the tick fail.
    reply.clear();
    wire::encode(reply,
                 wire::AckMsg{0,
                              logged ? wire::AckStatus::kOk
                                     : wire::AckStatus::kRejected,
                              tick->t});
    return conn.send(reply);
  }
  if (const auto* lookup = std::get_if<wire::LookupMsg>(&msg)) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    wire::LookupReplyMsg out;
    out.mn = lookup->mn;
    out.t = lookup->t;
    const auto entry = hooks_.directory->lookup(lookup->mn);
    if (entry.has_value()) {
      out.found = true;
      if (lookup->t > entry->t) {
        const auto belief =
            hooks_.directory->belief_at(lookup->mn, lookup->t);
        out.estimated = true;
        out.x = belief.has_value() ? belief->x : entry->position.x;
        out.y = belief.has_value() ? belief->y : entry->position.y;
      } else {
        out.estimated = entry->estimated;
        out.t = entry->t;
        out.x = entry->position.x;
        out.y = entry->position.y;
      }
    }
    reply.clear();
    wire::encode(reply, out);
    return conn.send(reply);
  }
  if (const auto* region = std::get_if<wire::RegionQueryMsg>(&msg)) {
    region_queries_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<serve::Neighbor> hits = hooks_.directory->query_region(
        {region->x, region->y}, region->radius, region->max_results);
    reply.clear();
    for (const serve::Neighbor& hit : hits) {
      wire::encode(reply, wire::NeighborMsg{hit.mn, hit.distance,
                                            hit.position.x, hit.position.y});
    }
    wire::encode(reply, wire::QueryDoneMsg{
                            static_cast<std::uint32_t>(hits.size()), 0.0});
    neighbors_sent_.fetch_add(hits.size(), std::memory_order_relaxed);
    return conn.send(reply);
  }
  if (const auto* nearest = std::get_if<wire::NearestQueryMsg>(&msg)) {
    nearest_queries_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<serve::Neighbor> hits =
        hooks_.directory->k_nearest({nearest->x, nearest->y}, nearest->k);
    reply.clear();
    for (const serve::Neighbor& hit : hits) {
      wire::encode(reply, wire::NeighborMsg{hit.mn, hit.distance,
                                            hit.position.x, hit.position.y});
    }
    wire::encode(reply, wire::QueryDoneMsg{
                            static_cast<std::uint32_t>(hits.size()), 0.0});
    neighbors_sent_.fetch_add(hits.size(), std::memory_order_relaxed);
    return conn.send(reply);
  }
  if (std::holds_alternative<wire::SubscribeMsg>(msg)) {
    if (hooks_.replication == nullptr) return false;  // not a primary
    const int raw = conn.release();
    if (raw < 0) {
      // Bytes were already buffered past the subscribe — a protocol
      // violation (the subscriber must not pipeline) — drop it.
      return false;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_.erase(raw);  // the hub owns (and shuts down) the fd now
    }
    hooks_.replication->adopt(raw);
    subscribes_.fetch_add(1, std::memory_order_relaxed);
    handed_off = true;
    return true;
  }
  // Acks, replies and snapshot frames are server -> client only.
  bad_frames_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace mgrid::cluster
