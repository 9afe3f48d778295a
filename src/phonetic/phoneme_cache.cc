#include "phonetic/phoneme_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/metrics.h"

namespace mural {

namespace {

Counter* HitsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.hits");
  return c;
}

Counter* MissesCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.misses");
  return c;
}

// Folds the language into the text's hash (the boost hash_combine step).
size_t HashKey(std::string_view text, LangId lang) {
  const size_t h = std::hash<std::string_view>{}(text);
  return h ^ (static_cast<size_t>(lang) + 0x9e3779b97f4a7c15ULL + (h << 6) +
              (h >> 2));
}

}  // namespace

PhonemeCache::PhonemeCache(size_t capacity)
    : capacity_(capacity),
      shard_capacity_(capacity == 0
                          ? 0
                          : std::max<size_t>(1, capacity / kNumShards)) {}

PhonemeString PhonemeCache::GetOrCompute(std::string_view text, LangId lang,
                                         const PhoneticTransformer& transformer,
                                         bool* was_hit) {
  const KeyRef key{text, lang, HashKey(text, lang)};
  Shard& shard = shards_[key.hash % kNumShards];
  if (capacity_ > 0) {
    ReaderMutexLock lock(shard.mu);
    const Map& entries = shard.entries;
    const auto it = entries.find(key);
    if (it != entries.end()) {
      const Entry& entry = it->second;
      if (!entry.referenced.load(std::memory_order_relaxed)) {
        entry.referenced.store(true, std::memory_order_relaxed);
      }
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      HitsCounter()->Increment();
      if (was_hit != nullptr) *was_hit = true;
      return entry.phonemes;
    }
  }

  shard.misses.fetch_add(1, std::memory_order_relaxed);
  MissesCounter()->Increment();
  if (was_hit != nullptr) *was_hit = false;
  PhonemeString phonemes = transformer.Transform(text, lang);
  if (capacity_ == 0) return phonemes;

  WriterMutexLock lock(shard.mu);
  // Another thread may have stored the same key meanwhile; its phonemes
  // are identical (Transform is deterministic), so keep its entry.
  if (shard.entries.find(key) != shard.entries.end()) return phonemes;
  if (shard.entries.size() >= shard_capacity_) EvictOne(&shard);
  shard.entries.try_emplace(Key{std::string(text), lang, key.hash},
                            phonemes);
  return phonemes;
}

void PhonemeCache::EvictOne(Shard* shard) {
  // Ends within two laps: the first clears every reference bit it passes,
  // and no hit can set one while the exclusive lock is held.
  Map& entries = shard->entries;
  for (;; ++shard->hand) {
    if (shard->hand >= entries.bucket_count()) shard->hand = 0;
    for (auto it = entries.begin(shard->hand); it != entries.end(shard->hand);
         ++it) {
      if (it->second.referenced.exchange(false, std::memory_order_relaxed)) {
        continue;
      }
      entries.erase(entries.find(it->first));
      ++shard->hand;
      return;
    }
  }
}

uint64_t PhonemeCache::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t PhonemeCache::misses() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.misses.load(std::memory_order_relaxed);
  }
  return total;
}

size_t PhonemeCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

void PhonemeCache::Clear() {
  for (Shard& shard : shards_) {
    WriterMutexLock lock(shard.mu);
    shard.entries.clear();
    shard.hand = 0;
  }
}

}  // namespace mural
