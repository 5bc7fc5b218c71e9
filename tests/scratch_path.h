// Test helper: per-process scratch paths under the system temp directory.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace mgrid::test {

/// `temp_directory_path()/mgrid_<pid>_<name>`: a file or directory path no
/// other process uses, so two builds' test binaries (a default and a
/// sanitizer tree, say) can run side by side without clobbering each
/// other's WALs, snapshots and event logs.
inline std::string scratch_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("mgrid_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace mgrid::test
