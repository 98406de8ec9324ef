#pragma once

/// \file hash.hpp
/// The library's one non-cryptographic hash family: FNV-1a (64-bit) for
/// content fingerprints and cache keys, and the splitmix64 finalizer for
/// seed streams and deterministic start vectors.
///
/// Header-only on purpose: sim, sysid and linalg see core/include through
/// auditherm::parallel but do not link auditherm_core.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace auditherm::core {

/// Standard FNV-1a-64 offset basis (14695981039346656037).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a (64-bit) over the structural content of cache-key
/// inputs and file bytes. Not cryptographic — keys are a memoization
/// address, not a security boundary. Integers hash as their 8
/// little-endian bytes; booleans as 1 / 2.
class Fnv1a64 {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= kFnvPrime;
    }
    state_ = h;
  }
  void add(std::uint64_t v) noexcept { add_bytes(&v, sizeof(v)); }
  void add(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }
  void add(bool v) noexcept { add(static_cast<std::uint64_t>(v ? 1 : 2)); }
  /// Doubles hash by bit pattern; NaNs collapse to one sentinel so every
  /// gap encoding keys identically.
  void add(double v) noexcept {
    add(std::isnan(v) ? kNanSentinel : std::bit_cast<std::uint64_t>(v));
  }
  void add(std::string_view s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(const std::vector<bool>& mask) noexcept {
    add(static_cast<std::uint64_t>(mask.size()));
    std::uint64_t word = 0;
    std::size_t filled = 0;
    for (bool b : mask) {
      word = (word << 1) | (b ? 1u : 0u);
      if (++filled == 64) {
        add(word);
        word = 0;
        filled = 0;
      }
    }
    if (filled > 0) add(word);
  }
  void add(const std::vector<int>& v) noexcept {
    add(static_cast<std::uint64_t>(v.size()));
    for (int x : v) add(static_cast<std::int64_t>(x));
  }
  /// One FNV-1a step over a whole 64-bit word (not its bytes): folds an
  /// already-computed fingerprint into a combined one.
  void add_word(std::uint64_t w) noexcept { state_ = (state_ ^ w) * kFnvPrime; }

  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  /// All NaN payloads key identically: a gap is a gap.
  static constexpr std::uint64_t kNanSentinel = 0x7ff8dead00000000ull;

  std::uint64_t state_ = kFnvOffsetBasis;
};

/// FNV-1a-64 of `bytes` from the standard offset basis.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  Fnv1a64 h;
  h.add_bytes(bytes.data(), bytes.size());
  return h.value();
}

/// splitmix64 finalizer: a bijective 64-bit mix with full avalanche.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace auditherm::core
