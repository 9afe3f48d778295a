// ExecContext: per-query runtime state shared by expressions and physical
// operators.
//
// Carries the session settings the paper routes through system tables
// (§4.2: the LexEQUAL threshold is a user/administrator-settable value, not
// a third operand), the pinned taxonomy + closure cache for SemEQUAL
// (§4.3), the phonetic transformer, and the effort counters that EXPLAIN
// ANALYZE and the benchmarks report.

#pragma once

#include <cstdint>

#include "distance/edit_distance.h"
#include "phonetic/transformer.h"
#include "taxonomy/taxonomy.h"

namespace mural {

class PhonemeCache;
class ThreadPool;

/// Effort counters accumulated during one query execution.
///
/// Every counter must be listed in ForEachCounter, which drives Merge and
/// the per-query delta in Session::Query.  The static_assert below checks
/// the field count against the struct size, so adding a field without
/// extending the visitor fails to compile instead of silently dropping the
/// new counter on the morsel-gather merge.
struct ExecStats {
  uint64_t rows_emitted = 0;
  uint64_t predicate_evals = 0;
  uint64_t phoneme_transforms = 0;     // non-materialized conversions
  uint64_t phoneme_cache_hits = 0;     // phoneme cache lookups served
  uint64_t phoneme_cache_misses = 0;   // phoneme cache lookups computed
  uint64_t closure_computations = 0;   // closure cache misses
  uint64_t closure_reuses = 0;         // closure cache hits
  uint64_t index_probes = 0;
  DistanceStats distance;

  /// Number of uint64 counters, including the DistanceStats members.
  static constexpr size_t kNumCounters = 11;

  /// Visits every counter as (name, uint64&).  `Self` is ExecStats or
  /// const ExecStats; the visitor sees const refs in the latter case.
  template <typename Self, typename Fn>
  static void ForEachCounter(Self& s, Fn&& fn) {
    fn("rows_emitted", s.rows_emitted);
    fn("predicate_evals", s.predicate_evals);
    fn("phoneme_transforms", s.phoneme_transforms);
    fn("phoneme_cache_hits", s.phoneme_cache_hits);
    fn("phoneme_cache_misses", s.phoneme_cache_misses);
    fn("closure_computations", s.closure_computations);
    fn("closure_reuses", s.closure_reuses);
    fn("index_probes", s.index_probes);
    fn("distance_calls", s.distance.calls);
    fn("distance_cells", s.distance.cells);
    fn("distance_word_ops", s.distance.word_ops);
  }

  void Reset() { *this = ExecStats(); }

  /// Folds a worker thread's counters into this (post-gather merge).
  void Merge(const ExecStats& other) {
    const uint64_t* theirs[kNumCounters];
    size_t n = 0;
    ForEachCounter(other,
                   [&](const char*, const uint64_t& v) { theirs[n++] = &v; });
    size_t i = 0;
    ForEachCounter(*this, [&](const char*, uint64_t& v) { v += *theirs[i++]; });
  }

  /// Subtracts `before` from every counter (per-query delta against a
  /// session-cumulative snapshot).
  void SubtractBaseline(const ExecStats& before) {
    const uint64_t* base[kNumCounters];
    size_t n = 0;
    ForEachCounter(before,
                   [&](const char*, const uint64_t& v) { base[n++] = &v; });
    size_t i = 0;
    ForEachCounter(*this, [&](const char*, uint64_t& v) { v -= *base[i++]; });
  }
};

// Completeness guard: if a field is added to ExecStats (or DistanceStats)
// without bumping kNumCounters + extending ForEachCounter, this trips.
static_assert(sizeof(ExecStats) == ExecStats::kNumCounters * sizeof(uint64_t),
              "ExecStats field added: update kNumCounters and "
              "ForEachCounter so Merge does not silently drop it");

/// Shared query-execution context.  Not owned by operators; each Session
/// owns one and threads it through the plans it runs (engine-internal
/// work such as Database::Analyze uses a short-lived private one).
struct ExecContext {
  /// LexEQUAL mismatch threshold (paper's user-settable system value).
  int lexequal_threshold = 2;

  /// Pinned multilingual taxonomy for SemEQUAL; may be null for queries
  /// that do not use the Omega operator.
  const Taxonomy* taxonomy = nullptr;

  /// Materialized-closure cache (paper §4.3); owned by the Database and
  /// shared by every session, so closures persist across queries.
  ClosureCache* closure_cache = nullptr;

  /// Text-to-phoneme engine for non-materialized UniText values.
  const PhoneticTransformer* transformer = &PhoneticTransformer::Default();

  /// Shared G2P memoization (thread-safe, owned by the Database); null =
  /// compute every transform directly.
  PhonemeCache* phoneme_cache = nullptr;

  /// Worker pool for morsel-parallel operators; null = serial execution
  /// regardless of degree_of_parallelism.
  ThreadPool* thread_pool = nullptr;

  /// Session degree of parallelism for Psi operators (1 = serial plans).
  int degree_of_parallelism = 1;

  /// Rows per RowBatch on the vectorized path; 0 forces tuple-at-a-time
  /// execution (Operator::NextBatch still works — it loops NextImpl with a
  /// capacity of one).
  size_t batch_size = 1024;

  ExecStats stats;

  /// A context for one morsel worker: same session state, fresh stats,
  /// and no nested parallelism.  Workers merge their stats back after the
  /// gather (ExecStats::Merge).  The closure and phoneme caches are both
  /// internally synchronized (GUARDED_BY-annotated mutexes, see
  /// common/mutex.h), so workers share the same instances.
  ExecContext WorkerClone() const {
    ExecContext clone = *this;
    clone.stats.Reset();
    clone.thread_pool = nullptr;
    clone.degree_of_parallelism = 1;
    return clone;
  }
};

}  // namespace mural
