// Bounded bit-parallel edit distance (Myers' algorithm composed with
// Ukkonen's cut-off).
//
// The kernel processes the pattern (the shorter string) as bit vectors —
// one 64-bit word below 65 phonemes, Hyyro's block-based extension above —
// and folds the threshold in as an early exit: after column j the running
// score is D[m][j+1], and the final distance can undercut it by at most
// one per remaining column, so `score - (n-1-j) > k` proves the pair
// exceeds the threshold without finishing the matrix.  A column costs one
// word-op per pattern block instead of the banded DP's (2k+1) cells, which
// is what makes the batch LexEQUAL pipeline's inner loop cheap.
//
// Equivalence with the DP kernels is proven exhaustively (all pairs up to
// length 9 on a binary alphabet) and at the 63/64/65 block boundaries in
// tests/distance_test.cc.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "distance/edit_distance.h"

namespace mural {

/// Returns the exact Levenshtein distance if it is <= k, otherwise k+1
/// (same contract as BoundedLevenshtein).  Handles arbitrary lengths.
int BoundedMyersLevenshtein(std::string_view a, std::string_view b, int k);

/// Same, accumulating effort into `stats`: each pattern-block column
/// advance counts one word-op (mirrored into `cells` so existing
/// effort reports stay comparable across kernels).
int BoundedMyersLevenshteinCounted(std::string_view a, std::string_view b,
                                   int k, DistanceStats* stats);

/// Exact (unbounded) distance via the block-based Myers extension; used by
/// MyersLevenshtein for patterns longer than one word.
int MyersBlockLevenshtein(std::string_view a, std::string_view b);

/// Prepared-pattern form of the bounded kernel for one fixed (pattern, k):
/// the 256-entry Peq table is built once at construction, so each
/// Distance() call runs only the column loop.  That is the per-row cost
/// that matters in the Psi operators, where one key is compared against
/// many: a keyed SeqScanOp prepares the probe once per morsel, LexJoinOp
/// each outer key once for the whole inner side.
///
/// Results and DistanceStats accounting are contractually identical to
/// `BoundedDistanceCounted(pattern, text, k, stats)` (the distance is
/// symmetric; word-op counts reflect the fixed pattern's block count
/// rather than the shorter string's, which is the same thing whenever the
/// bound admits a match).  Not thread-safe: the block form reuses member
/// scratch across calls — clone per worker like any operator state.
class BoundedMyersMatcher {
 public:
  BoundedMyersMatcher(std::string_view pattern, int k);

  /// Exact distance to `text` if <= k, else k+1.
  int Distance(std::string_view text, DistanceStats* stats);

 private:
  std::string pattern_;
  int k_;
  size_t blocks_ = 0;         // 0: pattern fits one word (peq_ is live)
  uint64_t peq_[256];         // one-word Peq, built iff blocks_ == 0
  std::vector<uint64_t> peq_blocks_;  // block Peq, 256 * blocks_ words
  std::vector<uint64_t> pv_, mv_;     // block carry scratch, per call
};

}  // namespace mural
