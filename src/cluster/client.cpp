#include "cluster/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/span.h"

namespace mgrid::cluster {

namespace {

void set_io_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                               1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

int connect_tcp(const std::string& host, std::uint16_t port,
                double timeout_seconds, std::string& error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error = "bad host address " + host;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeout_seconds > 0.0 ? timeout_seconds
                                                            : 5.0);
    for (;;) {
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count();
      if (remaining_ms <= 0) {
        error = "connect: timed out";
        ::close(fd);
        return -1;
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int n = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        error = std::string("poll: ") + std::strerror(errno);
        ::close(fd);
        return -1;
      }
      if (n > 0) break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      error = std::string("connect: ") +
              std::strerror(so_error != 0 ? so_error : errno);
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  // LU batches are latency-sensitive and already coalesced by the caller.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

FrameConn::FrameConn(int fd, double io_timeout_seconds) : fd_(fd) {
  if (fd_ >= 0) set_io_timeout(fd_, io_timeout_seconds);
}

FrameConn::~FrameConn() { close(); }

FrameConn::FrameConn(FrameConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      buffer_pos_(std::exchange(other.buffer_pos_, 0)),
      error_(std::move(other.error_)),
      timed_out_(other.timed_out_) {}

FrameConn& FrameConn::operator=(FrameConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    buffer_pos_ = std::exchange(other.buffer_pos_, 0);
    error_ = std::move(other.error_);
    timed_out_ = other.timed_out_;
  }
  return *this;
}

int FrameConn::release() {
  if (buffer_pos_ != buffer_.size()) return -1;
  buffer_.clear();
  buffer_pos_ = 0;
  return std::exchange(fd_, -1);
}

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  buffer_pos_ = 0;
}

bool FrameConn::send(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = std::string("send: ") + std::strerror(errno);
      close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameConn::recv_message(wire::Message& out, bool idle_ok) {
  timed_out_ = false;
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  for (;;) {
    const std::span<const std::uint8_t> pending{
        buffer_.data() + buffer_pos_, buffer_.size() - buffer_pos_};
    wire::Decoded decoded = wire::decode_frame(pending);
    if (decoded.ok()) {
      out = std::move(decoded.msg);
      buffer_pos_ += decoded.consumed;
      if (buffer_pos_ == buffer_.size()) {
        buffer_.clear();
        buffer_pos_ = 0;
      } else if (buffer_pos_ > (64 << 10)) {
        // Compact occasionally so a long-lived stream does not grow the
        // buffer by its consumed prefix forever.
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(buffer_pos_));
        buffer_pos_ = 0;
      }
      return true;
    }
    if (decoded.status != wire::DecodeStatus::kNeedMoreData) {
      error_ = std::string("bad frame: ") +
               std::string(wire::to_string(decoded.status));
      close();
      return false;
    }
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      error_ = "recv: timed out";
      if (idle_ok) {
        timed_out_ = true;  // connection stays open; caller may retry
      } else {
        close();
      }
      return false;
    }
    if (n < 0) {
      error_ = std::string("recv: ") + std::strerror(errno);
      close();
      return false;
    }
    if (n == 0) {
      error_ = "peer closed";
      close();
      return false;
    }
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
}

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)) {}

bool ShardClient::connect(std::string* error) {
  if (conn_.connected()) return true;
  std::string local_error;
  const int fd = connect_tcp(options_.host, options_.port,
                             options_.connect_timeout_seconds, local_error);
  if (fd < 0) {
    if (error != nullptr) *error = local_error;
    return false;
  }
  conn_ = FrameConn(fd, options_.io_timeout_seconds);
  return true;
}

bool ShardClient::send_lus(const std::vector<wire::LuMsg>& batch) {
  if (batch.empty()) return true;
  scratch_.clear();
  std::uint64_t send_us = 0;  // stamped lazily: untraced batches skip the clock
  for (const wire::LuMsg& msg : batch) {
    if (msg.trace.trace_id == 0) {
      wire::encode(scratch_, msg);
      continue;
    }
    if (send_us == 0) send_us = obs::span_now_us();
    wire::LuMsg stamped = msg;
    stamped.trace.send_us = send_us;
    wire::encode(scratch_, stamped);
  }
  return conn_.send(scratch_);
}

bool ShardClient::tick(double t, std::uint64_t tick) {
  scratch_.clear();
  wire::encode(scratch_, wire::TickMsg{t, tick});
  if (!conn_.send(scratch_)) return false;
  wire::Message reply;
  if (!conn_.recv_message(reply)) return false;
  return std::holds_alternative<wire::AckMsg>(reply) &&
         std::get<wire::AckMsg>(reply).status == wire::AckStatus::kOk;
}

std::optional<wire::LookupReplyMsg> ShardClient::lookup(std::uint32_t mn,
                                                        double t) {
  scratch_.clear();
  wire::encode(scratch_, wire::LookupMsg{mn, t});
  if (!conn_.send(scratch_)) return std::nullopt;
  wire::Message reply;
  if (!conn_.recv_message(reply)) return std::nullopt;
  if (!std::holds_alternative<wire::LookupReplyMsg>(reply)) {
    conn_.close();
    return std::nullopt;
  }
  return std::get<wire::LookupReplyMsg>(reply);
}

bool ShardClient::query_region(const wire::RegionQueryMsg& query,
                               std::vector<wire::NeighborMsg>& out) {
  scratch_.clear();
  wire::encode(scratch_, query);
  if (!conn_.send(scratch_)) return false;
  return read_neighbor_stream(out);
}

bool ShardClient::k_nearest(const wire::NearestQueryMsg& query,
                            std::vector<wire::NeighborMsg>& out) {
  scratch_.clear();
  wire::encode(scratch_, query);
  if (!conn_.send(scratch_)) return false;
  return read_neighbor_stream(out);
}

bool ShardClient::read_neighbor_stream(std::vector<wire::NeighborMsg>& out) {
  for (;;) {
    wire::Message msg;
    if (!conn_.recv_message(msg)) return false;
    if (std::holds_alternative<wire::NeighborMsg>(msg)) {
      out.push_back(std::get<wire::NeighborMsg>(msg));
      continue;
    }
    if (std::holds_alternative<wire::QueryDoneMsg>(msg)) return true;
    conn_.close();  // protocol violation mid-stream
    return false;
  }
}

}  // namespace mgrid::cluster
