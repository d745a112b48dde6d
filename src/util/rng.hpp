#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace qulrb::util {

#ifdef __SIZEOF_INT128__
namespace detail {
__extension__ typedef unsigned __int128 uint128;
}  // namespace detail
#endif

/// splitmix64: used to seed the main generator and to derive independent
/// stream seeds from a single user seed. Reference: Steele, Lea, Flood,
/// "Fast splittable pseudorandom number generators" (OOPSLA'14).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Deterministic, fast, and good enough
/// statistically for Monte-Carlo annealing. Satisfies UniformRandomBitGenerator
/// so it can be used with <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// Inline: the annealers draw one per proposed move.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
#ifdef __SIZEOF_INT128__
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next_u64();
    detail::uint128 m =
        static_cast<detail::uint128>(x) * static_cast<detail::uint128>(bound);
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next_u64();
        m = static_cast<detail::uint128>(x) * static_cast<detail::uint128>(bound);
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
#else
    // Rejection sampling fallback.
    const std::uint64_t limit = max() - max() % bound;
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return x % bound;
#endif
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with probability p.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Standard normal via Box-Muller (no cached spare; simple & deterministic).
  double next_normal() noexcept;

  /// Derive an independent child generator (for per-thread streams).
  Rng split() noexcept { return Rng(next_u64() ^ 0xA5A5A5A5DEADBEEFULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace qulrb::util
