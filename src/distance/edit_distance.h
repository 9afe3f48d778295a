// Edit-distance algorithms for phoneme strings.
//
// The paper's LexEQUAL operator matches phonemic strings under the standard
// Levenshtein (unit-cost) edit distance, computed with the *diagonal
// transition* algorithm of Ukkonen (Navarro's survey [16] in the paper)
// which is O(k * min(m,n)) for threshold k rather than O(m*n).  We provide:
//
//   - Levenshtein         : textbook O(m*n) two-row DP (reference)
//   - BoundedLevenshtein  : Ukkonen banded/cut-off, O(k*min(m,n)); returns
//                           k+1 when the true distance exceeds k
//   - MyersLevenshtein    : Myers bit-parallel O(n*m/64); block-based
//                           extension beyond 64 phonemes (bounded_myers.h)
//   - WithinDistance      : boolean form with early termination
//
// The Psi operators run the bounded bit-parallel kernel through a prepared
// BoundedMyersMatcher (bounded_myers.h); BoundedDistanceCounted is its
// unprepared dispatcher, used by the generic LexEQUAL expression.  The DP
// kernels above stay as the references the equivalence harness checks
// against and as the ablation baselines.
//
// All operate on byte strings (one byte == one phoneme in the canonical
// alphabet); a code-point variant handles raw UTF-8 text.  Unit-cost
// Levenshtein over any alphabet is a metric (identity, symmetry, triangle
// inequality) — the property the M-Tree's pruning relies on; the property
// tests assert it.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/utf8.h"

namespace mural {

/// Exact Levenshtein distance, O(m*n) time, O(min(m,n)) space.
int Levenshtein(std::string_view a, std::string_view b);

/// Banded Levenshtein with cut-off (Ukkonen's diagonal-transition scheme):
/// returns the exact distance if it is <= k, otherwise returns k+1.
/// O((2k+1) * min(m,n)) time.
int BoundedLevenshtein(std::string_view a, std::string_view b, int k);

/// Myers' bit-parallel algorithm; exact distance.  Pattern (the shorter
/// string) is processed 64 phonemes at a time; arbitrary lengths go
/// through the block-based extension.
int MyersLevenshtein(std::string_view a, std::string_view b);

/// True iff Levenshtein(a, b) <= k (uses the bounded algorithm).
bool WithinDistance(std::string_view a, std::string_view b, int k);

/// Levenshtein over decoded Unicode code points (one code point == one edit
/// unit), for matching raw multilingual text rather than phoneme strings.
int LevenshteinCodePoints(std::string_view utf8_a, std::string_view utf8_b);

/// Statistics counter the executor uses to report distance-computation
/// effort in EXPLAIN ANALYZE and benches.
struct DistanceStats {
  uint64_t calls = 0;
  uint64_t cells = 0;     // DP cells (or word-ops for Myers) touched
  uint64_t word_ops = 0;  // bit-parallel column advances only

  void Reset() { *this = DistanceStats(); }
};

/// Same as BoundedLevenshtein but accumulates effort into `stats`.
int BoundedLevenshteinCounted(std::string_view a, std::string_view b, int k,
                              DistanceStats* stats);

/// The production bounded-distance kernel: every threshold-bounded call
/// site in the executor (Psi filter, Psi join, M-Tree probes) routes
/// through this one dispatcher so the kernel choice — and therefore the
/// DistanceStats a query reports — is identical between the tuple-at-a-time
/// and batch paths.  Rules: k < 0 short-circuits (convention: returns 1),
/// k == 0 degenerates to an equality compare, everything else runs the
/// bounded bit-parallel kernel (bounded_myers.h).
int BoundedDistanceCounted(std::string_view a, std::string_view b, int k,
                           DistanceStats* stats);

}  // namespace mural
