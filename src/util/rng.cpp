#include "util/rng.h"

#include <stdexcept>

namespace mgrid::util {

double RngStream::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("RngStream::uniform: lo > hi");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double RngStream::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("RngStream::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::normal(double mean, double stddev) {
  if (stddev < 0.0) {
    throw std::invalid_argument("RngStream::normal: stddev < 0");
  }
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double RngStream::exponential(double rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument("RngStream::exponential: rate <= 0");
  }
  return std::exponential_distribution<double>(rate)(engine_);
}

bool RngStream::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform01() < probability;
}

std::size_t RngStream::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("RngStream::index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

RngStream RngRegistry::stream(std::string_view name) const {
  return RngStream(splitmix64(root_seed_ ^ fnv1a64(name)));
}

RngStream RngRegistry::stream(std::string_view name,
                              std::uint64_t index) const {
  return RngStream(splitmix64(splitmix64(root_seed_ ^ fnv1a64(name)) + index));
}

}  // namespace mgrid::util
