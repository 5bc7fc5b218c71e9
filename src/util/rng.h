// Deterministic random-number streams.
//
// Every stochastic component (mobility models, channel loss, workload
// construction) draws from a named stream derived from a single experiment
// seed, so an experiment is reproducible bit-for-bit regardless of the order
// in which components are constructed or stepped.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mgrid::util {

/// A single deterministic random stream (thin wrapper over mt19937_64 with
/// the distribution helpers this codebase needs).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Normal with the given mean / stddev. Requires stddev >= 0.
  [[nodiscard]] double normal(double mean, double stddev);
  /// Exponential with the given rate. Requires rate > 0.
  [[nodiscard]] double exponential(double rate);
  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability);
  /// Uniformly chosen index into a container of `size` elements. Requires
  /// size > 0.
  [[nodiscard]] std::size_t index(std::size_t size);

  /// Pick a uniformly random element.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Access to the raw engine for std distributions not wrapped above.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives independent named streams from one experiment seed.
///
/// The sub-seed is a hash of (root seed, stream name), so adding a new stream
/// never perturbs existing ones.
class RngRegistry {
 public:
  explicit RngRegistry(std::uint64_t root_seed) noexcept
      : root_seed_(root_seed) {}

  /// A fresh stream for `name`. Calling twice with the same name yields two
  /// streams with identical state (it derives, it does not share).
  [[nodiscard]] RngStream stream(std::string_view name) const;

  /// A fresh stream for (name, index) — e.g. one per mobile node.
  [[nodiscard]] RngStream stream(std::string_view name,
                                 std::uint64_t index) const;

  [[nodiscard]] std::uint64_t root_seed() const noexcept { return root_seed_; }

 private:
  std::uint64_t root_seed_;
};

/// Stable 64-bit FNV-1a hash of a string (used for seed derivation; must not
/// change across platforms or releases).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// SplitMix64 step — used to whiten derived seeds and as the consistent-hash
/// ring's point/probe hash (inline: the ring runs it per lookup probe). Must
/// not change across platforms or releases.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace mgrid::util
