// PhonemeCache: a sharded, thread-safe CLOCK cache of G2P transformations.
//
// Table 3 makes LexEQUAL CPU-bound on text-to-phoneme conversion; when
// phoneme strings are not materialized in storage (§4.2's fallback), every
// probe used to re-run G2P.  The cache memoizes (text, language) ->
// phonemes across operators, queries, and worker threads, so each distinct
// value is converted at most once per residency.
//
// A hit must cost well under the G2P call it saves, so the hit path builds
// no key and writes nothing shared but the lock word and two counters:
//
//   * Keys: (text, lang) is hashed once per lookup.  A heterogeneous
//     (`is_transparent`) lookup probes the shard's map with a view of the
//     caller's text; the resident key owns the only copy of the text and
//     carries its hash, so rehashing never re-reads it.
//   * Locking: the hash picks one of kNumShards shards.  A hit holds the
//     shard's SharedMutex shared; only a miss takes it exclusively, to
//     insert and, at capacity, evict.
//   * Recency: CLOCK, not LRU.  A hit sets the entry's reference bit
//     (stored only when it is clear, so a hot entry's cache line stays
//     shared); the eviction sweep walks the map's buckets from the shard's
//     hand, clearing set bits and evicting the first entry whose bit is
//     already clear.  No list is spliced on a hit.
//   * Counters: each shard, on its own cache line, counts its hits and
//     misses; hits() and misses() sum them.  The process-wide
//     `phonetic.phoneme_cache.{hits,misses}` registry counters count every
//     lookup as well.
//
// Transformation runs *outside* the shard lock (G2P is pure and
// deterministic, so a duplicate compute under contention is benign and
// both threads return the same string; only the first is stored).
//
// Capacity 0 disables caching: lookups always compute, count a miss, and
// store nothing — the ablation baseline for the benchmarks.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "phonetic/transformer.h"
#include "text/language.h"

namespace mural {

class PhonemeCache {
 public:
  static constexpr size_t kNumShards = 8;

  /// `capacity` is the total entry budget, split evenly across shards
  /// (each shard holds at least one entry unless capacity is 0).
  explicit PhonemeCache(size_t capacity);

  PhonemeCache(const PhonemeCache&) = delete;
  PhonemeCache& operator=(const PhonemeCache&) = delete;

  /// Returns the phoneme string for (text, lang), computing it with
  /// `transformer` on a miss.  Sets *was_hit (if non-null) so callers can
  /// attribute the lookup to per-query stats.
  PhonemeString GetOrCompute(std::string_view text, LangId lang,
                             const PhoneticTransformer& transformer,
                             bool* was_hit = nullptr);

  /// Cumulative lookup counters across all threads and queries.
  uint64_t hits() const;
  uint64_t misses() const;

  /// Entries currently resident (sums the shards; approximate under
  /// concurrent mutation).
  size_t size() const;

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

  /// Drops every entry (counters are preserved).
  void Clear();

 private:
  // A lookup's key: a view of the caller's text, hashed once.
  struct KeyRef {
    std::string_view text;
    LangId lang;
    size_t hash;
  };
  // A resident key: the one stored copy of the text, and its hash.
  struct Key {
    std::string text;
    LangId lang;
    size_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const Key& k) const noexcept { return k.hash; }
    size_t operator()(const KeyRef& k) const noexcept { return k.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.hash == b.hash && a.lang == b.lang &&
             std::string_view(a.text) == std::string_view(b.text);
    }
  };
  struct Entry {
    explicit Entry(PhonemeString p) : phonemes(std::move(p)) {}
    PhonemeString phonemes;
    // The CLOCK reference bit.  Hits set it under the shared lock (so it
    // is atomic); the eviction sweep clears it under the exclusive lock.
    mutable std::atomic<bool> referenced{false};
  };
  using Map = std::unordered_map<Key, Entry, KeyHash, KeyEq>;

  struct alignas(64) Shard {
    mutable SharedMutex mu;
    Map entries GUARDED_BY(mu);
    size_t hand GUARDED_BY(mu) = 0;  // the bucket the next sweep starts at
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  /// Evicts one entry by the CLOCK rule.  The shard must be non-empty.
  static void EvictOne(Shard* shard) REQUIRES(shard->mu);

  const size_t capacity_;
  const size_t shard_capacity_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace mural
