//===- support/Hashing.h - Word-mixing hash for small keys -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One small hash for the keys the validator and value numbering put in
/// std::unordered_* tables: a few pointers and integers. std::hash is the
/// identity on pointers, and aligned heap addresses differ mostly in their
/// middle bits, so each word is folded in with a multiply-xorshift step.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_HASHING_H
#define SRP_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace srp {

/// Folds \p W into the running hash \p H.
constexpr uint64_t mixWord(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
  return H ^ (H >> 32);
}

/// Hashes pointers and integers, in order.
template <typename... Ts> size_t hashWords(Ts... Words) {
  uint64_t H = 0;
  auto Fold = [&H](auto W) {
    if constexpr (std::is_pointer_v<decltype(W)>)
      H = mixWord(H, reinterpret_cast<uintptr_t>(W));
    else
      H = mixWord(H, static_cast<uint64_t>(W));
  };
  (Fold(Words), ...);
  return static_cast<size_t>(H);
}

} // namespace srp

#endif // SRP_SUPPORT_HASHING_H
