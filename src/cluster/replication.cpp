#include "cluster/replication.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "serve/snapshot.h"

namespace mgrid::cluster {

namespace {

void set_send_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                               1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ReplicationHub::ReplicationHub(const serve::ShardedDirectory& directory,
                               ReplicationOptions options)
    : directory_(directory), options_(options) {
  options_.chunk_bytes =
      std::clamp<std::size_t>(options_.chunk_bytes, 1, wire::kMaxChunkBytes);
  lag_gauge_ = obs::current_registry().gauge(
      "mgrid_replication_subscriber_lag_records", {},
      "Records enqueued to replication subscribers and not yet fully "
      "flushed to their sockets");
  streamer_ = std::thread([this] { streamer_main(); });
}

ReplicationHub::~ReplicationHub() { stop(); }

void ReplicationHub::on_lu(const wire::LuMsg& msg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || (subscribers_.empty() && pending_fds_.empty())) return;
  wire::LuMsg out = msg;
  if (out.trace.trace_id != 0) {
    // The primary's last stage of a traced LU is visibility.
    out.trace.parent_stage = static_cast<std::uint32_t>(obs::LuStage::kVisible);
  }
  wire::encode(live_, out);
  ++live_lus_;
}

void ReplicationHub::on_tick(double t, std::uint64_t tick,
                             std::uint64_t wal_records) {
  std::vector<std::uint8_t> tick_frame;
  wire::encode(tick_frame, wire::TickMsg{t, tick});

  bool notify = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;

    for (auto& sub : subscribers_) {
      if (sub->dead) continue;
      enqueue_locked(*sub, live_.data(), live_.size(), live_lus_);
      enqueue_locked(*sub, tick_frame.data(), tick_frame.size(), 1);
      lus_streamed_ += live_lus_;
      notify = true;
    }
    live_.clear();
    live_lus_ = 0;

    if (!pending_fds_.empty()) {
      // Bootstrap every pending subscriber from one snapshot taken at this
      // (quiescent) barrier. The snapshot already reflects this tick's
      // advance_estimates, so the new subscriber's stream starts with the
      // *next* barrier's traffic.
      std::vector<std::uint8_t> image;
      const bool ok = serve::encode_snapshot(directory_, wal_records, t, image);
      for (const int fd : pending_fds_) {
        if (!ok) {
          ++snapshot_failures_;
          ::close(fd);
          continue;
        }
        auto sub = std::make_unique<Subscriber>();
        sub->fd = fd;
        std::vector<std::uint8_t> frame;
        for (std::size_t pos = 0; pos < image.size();
             pos += options_.chunk_bytes) {
          wire::SnapshotChunkMsg chunk;
          const std::size_t len =
              std::min(options_.chunk_bytes, image.size() - pos);
          chunk.bytes.assign(image.begin() + static_cast<std::ptrdiff_t>(pos),
                             image.begin() +
                                 static_cast<std::ptrdiff_t>(pos + len));
          frame.clear();
          wire::encode(frame, chunk);
          enqueue_locked(*sub, frame.data(), frame.size(), 1);
        }
        frame.clear();
        wire::encode(frame, wire::SnapshotDoneMsg{image.size(), wal_records});
        enqueue_locked(*sub, frame.data(), frame.size(), 1);
        subscribers_.push_back(std::move(sub));
        ++attached_total_;
        notify = true;
      }
      pending_fds_.clear();
    }
    refresh_lag_locked();
  }
  if (notify) work_cv_.notify_all();
}

void ReplicationHub::adopt(int fd) {
  set_send_timeout(fd, 5.0);
  bool accepted = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      pending_fds_.push_back(fd);
      accepted = true;
    }
  }
  if (!accepted) ::close(fd);
}

bool ReplicationHub::drain(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return drained_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [this] {
        if (stopping_) return true;
        if (streaming_) return false;
        for (const auto& sub : subscribers_) {
          if (!sub->dead && !sub->outgoing.empty()) return false;
        }
        return true;
      });
}

void ReplicationHub::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& sub : subscribers_) {
      if (sub->fd >= 0) ::shutdown(sub->fd, SHUT_RDWR);
    }
    for (const int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }
  work_cv_.notify_all();
  drained_cv_.notify_all();
  if (streamer_.joinable()) streamer_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& sub : subscribers_) {
    if (sub->fd >= 0) {
      ::close(sub->fd);
      sub->fd = -1;
      ++detached_total_;
    }
  }
  subscribers_.clear();
}

ReplicationHub::Stats ReplicationHub::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  for (const auto& sub : subscribers_) {
    if (sub->dead) continue;
    ++s.subscribers;
    if (!sub->outgoing.empty()) {
      s.subscriber_lag_records += sub->buffered_records;
    }
  }
  s.pending = pending_fds_.size();
  s.attached_total = attached_total_;
  s.detached_total = detached_total_;
  s.dropped_slow = dropped_slow_;
  s.lus_streamed = lus_streamed_;
  s.bytes_streamed = bytes_streamed_.load(std::memory_order_relaxed);
  s.snapshot_failures = snapshot_failures_;
  return s;
}

void ReplicationHub::enqueue_locked(Subscriber& sub, const std::uint8_t* data,
                                    std::size_t size, std::uint64_t records) {
  if (sub.dead || sub.fd < 0) return;
  sub.outgoing.insert(sub.outgoing.end(), data, data + size);
  sub.buffered_records += records;
  if (sub.outgoing.size() > options_.max_buffered_bytes) {
    // A consumer this far behind is dead or wedged; protect the primary's
    // memory instead of the replica's continuity.
    sub.dead = true;
    sub.outgoing.clear();
    sub.buffered_records = 0;
    ::shutdown(sub.fd, SHUT_RDWR);
    ++dropped_slow_;
  }
}

void ReplicationHub::refresh_lag_locked() {
  std::uint64_t lag = 0;
  for (const auto& sub : subscribers_) {
    if (sub->dead) continue;
    // A fully drained queue settles to exactly 0; partial drains keep the
    // enqueued count (the gauge answers "how far behind", not "how many
    // bytes are in flight").
    if (sub->outgoing.empty()) sub->buffered_records = 0;
    lag += sub->buffered_records;
  }
  subscriber_lag_records_ = lag;
  if (obs::enabled()) lag_gauge_.set(static_cast<double>(lag));
}

void ReplicationHub::streamer_main() {
  std::vector<std::uint8_t> out;
  for (;;) {
    int fd = -1;
    Subscriber* target = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        if (stopping_) return true;
        for (const auto& sub : subscribers_) {
          if (sub->dead || !sub->outgoing.empty()) return true;
        }
        return false;
      });
      // Reap dead subscribers first so their fds do not linger.
      for (auto it = subscribers_.begin(); it != subscribers_.end();) {
        if ((*it)->dead) {
          if ((*it)->fd >= 0) ::close((*it)->fd);
          ++detached_total_;
          it = subscribers_.erase(it);
        } else {
          ++it;
        }
      }
      if (stopping_) return;
      for (auto& sub : subscribers_) {
        if (!sub->outgoing.empty()) {
          const std::size_t n = std::min<std::size_t>(
              sub->outgoing.size(), 256u << 10);
          out.assign(sub->outgoing.begin(),
                     sub->outgoing.begin() + static_cast<std::ptrdiff_t>(n));
          sub->outgoing.erase(
              sub->outgoing.begin(),
              sub->outgoing.begin() + static_cast<std::ptrdiff_t>(n));
          fd = sub->fd;
          target = sub.get();
          streaming_ = true;
          break;
        }
      }
    }
    if (target == nullptr) continue;
    // Socket I/O happens outside the hub mutex so on_lu() (which runs under
    // an ingest source-queue lock) never waits on a slow follower.
    const bool ok = send_all(fd, out.data(), out.size());
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      streaming_ = false;
      if (ok) {
        bytes_streamed_.fetch_add(out.size(), std::memory_order_relaxed);
      } else {
        // `target` stays valid: only this thread erases subscribers.
        target->dead = true;
        target->outgoing.clear();
        target->buffered_records = 0;
      }
      refresh_lag_locked();
    }
    drained_cv_.notify_all();
  }
}

Follower::Follower(serve::ShardedDirectory& directory, FollowerOptions options)
    : directory_(directory), options_(options) {
  if (options_.spans != nullptr) {
    options_.spans->register_sli("follower_apply", 0.0, 0.1, 100);
  }
}

Follower::~Follower() {
  if (socket_fd_ >= 0) ::close(socket_fd_);
}

bool Follower::connect(std::string* error) {
  std::string local_error;
  const int fd = connect_tcp(options_.host, options_.port,
                             options_.connect_timeout_seconds, local_error);
  const int read_fd = fd >= 0 ? ::dup(fd) : -1;
  if (fd >= 0 && read_fd < 0) {
    local_error = std::string("dup: ") + std::strerror(errno);
    ::close(fd);
  }
  if (read_fd < 0) {
    error_ = local_error;
    if (error != nullptr) *error = local_error;
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(socket_mutex_);
    if (socket_fd_ >= 0) ::close(socket_fd_);
    socket_fd_ = fd;
  }
  conn_ = FrameConn(read_fd, options_.io_timeout_seconds);
  std::vector<std::uint8_t> frame;
  wire::encode(frame, wire::SubscribeMsg{0, 0});
  if (!conn_.send(frame)) {
    error_ = "subscribe send failed: " + conn_.last_error();
    if (error != nullptr) *error = error_;
    return false;
  }
  return true;
}

bool Follower::run() {
  const bool clean = consume();
  // However the stream ended, the primary sees the connection close now
  // rather than when this follower is destroyed.
  shutdown_socket();
  return clean;
}

bool Follower::consume() {
  std::vector<std::uint8_t> snapshot_bytes;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return true;
    wire::Message msg;
    if (!conn_.recv_message(msg, /*idle_ok=*/true)) {
      if (conn_.timed_out()) continue;  // idle poll; check stop_ and retry
      error_ = conn_.last_error();
      return error_ == "peer closed";
    }
    if (const auto* chunk = std::get_if<wire::SnapshotChunkMsg>(&msg)) {
      snapshot_bytes.insert(snapshot_bytes.end(), chunk->bytes.begin(),
                            chunk->bytes.end());
      continue;
    }
    if (const auto* done = std::get_if<wire::SnapshotDoneMsg>(&msg)) {
      if (done->total_bytes != snapshot_bytes.size()) {
        error_ = "snapshot transfer size mismatch";
        return false;
      }
      serve::SnapshotData snapshot;
      if (!serve::decode_snapshot(snapshot_bytes.data(),
                                  snapshot_bytes.size(), snapshot)) {
        error_ = "snapshot image failed validation";
        return false;
      }
      const std::size_t restored = serve::apply_snapshot(directory_, snapshot);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.snapshot_loaded = true;
      stats_.snapshot_bytes = snapshot_bytes.size();
      stats_.snapshot_wal_records = done->wal_records;
      stats_.tracks_restored = restored;
      snapshot_bytes.clear();
      snapshot_bytes.shrink_to_fit();
      continue;
    }
    if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
      // A traced LU closes its cluster trace here: a one-stage span under
      // the propagated id covering the serial apply on this replica.
      const bool traced = lu->trace.trace_id != 0 &&
                          options_.spans != nullptr &&
                          options_.spans->enabled();
      const std::uint64_t apply_start_us = traced ? obs::span_now_us() : 0;
      const bool applied = directory_.update(lu->mn, lu->t, {lu->x, lu->y},
                                             {lu->vx, lu->vy});
      if (traced) {
        obs::LuSpan span;
        span.trace_id = lu->trace.trace_id;
        span.mn = lu->mn;
        span.seq = lu->seq;
        span.wall_us = obs::span_now_us();
        span.stage_seconds[static_cast<std::size_t>(
            obs::LuStage::kFollowerApply)] =
            static_cast<double>(span.wall_us - apply_start_us) * 1e-6;
        span.total_seconds = span.stage_seconds[static_cast<std::size_t>(
            obs::LuStage::kFollowerApply)];
        options_.spans->record("follower_apply", span);
      }
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (applied) {
        ++stats_.lus_applied;
      } else {
        ++stats_.lus_rejected;
      }
      continue;
    }
    if (const auto* tick = std::get_if<wire::TickMsg>(&msg)) {
      directory_.advance_estimates(tick->t);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ticks_applied;
      stats_.last_tick_t = tick->t;
      stats_.last_tick = tick->tick;
      continue;
    }
    error_ = "unexpected frame on replication stream";
    return false;
  }
}

void Follower::stop() {
  stop_.store(true, std::memory_order_release);
  shutdown_socket();
}

void Follower::shutdown_socket() {
  const std::lock_guard<std::mutex> lock(socket_mutex_);
  if (socket_fd_ >= 0) ::shutdown(socket_fd_, SHUT_RDWR);
}

Follower::Stats Follower::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace mgrid::cluster
