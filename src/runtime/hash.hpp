#pragma once
// The two non-cryptographic hashes every module shares: FNV-1a-64 (checkpoint
// and manifest checksums, the run-configuration hash, JIT fingerprints and
// cache keys, fault-site keys) and the splitmix64 finalizer (counter-mode
// fault and chaos draws). Both are stable across platforms; the bar is
// reproducibility, not cryptography.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace finch::rt {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a-64 over `n` bytes, continuing the chain from state `h`.
inline uint64_t fnv1a64(const void* data, size_t n, uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}
inline uint64_t fnv1a64(std::string_view s, uint64_t h = kFnvOffset) {
  return fnv1a64(s.data(), s.size(), h);
}
// Bitwise over the raw bytes: NaN payloads, signed zeros and infinities of
// hashed doubles all hash distinctly, so any corruption is visible.
inline uint64_t fnv1a64(std::span<const std::byte> bytes, uint64_t h = kFnvOffset) {
  return fnv1a64(bytes.data(), bytes.size(), h);
}

inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace finch::rt
