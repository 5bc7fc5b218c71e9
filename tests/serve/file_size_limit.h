// Test helper: makes this process's file writes fail past a size limit.
#pragma once

#include <sys/resource.h>

#include <csignal>
#include <cstdint>

namespace mgrid::test {

/// Lowers RLIMIT_FSIZE to `bytes` with SIGXFSZ ignored, so a write(2) that
/// would grow a file past the limit fails with EFBIG instead of killing the
/// process. Restores the limit and the signal disposition on destruction.
/// The limit covers every regular file the process writes, so keep the
/// scope short.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uint64_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }

  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

}  // namespace mgrid::test
