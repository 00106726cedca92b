#ifndef GUARDRAIL_COMMON_HASH_H_
#define GUARDRAIL_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace guardrail {

/// FNV-1a 64-bit parameters.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// 1469598103934665603: FNV's decimal offset basis with its last digit
/// dropped. The failpoint streams and the in-memory group keys of the fill,
/// BIC and FD-detector scans were written against it; keeping it keeps
/// seeded failpoint draws and hash-map iteration orders bit-identical.
inline constexpr uint64_t kFnvShortOffset = 1469598103934665603ULL;

/// FNV-1a over `bytes`, continuing from `h` (chain calls to hash a
/// concatenation).
inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// One FNV-1a step over a whole word instead of a byte.
inline uint64_t FnvMix(uint64_t h, uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

}  // namespace guardrail

#endif  // GUARDRAIL_COMMON_HASH_H_
