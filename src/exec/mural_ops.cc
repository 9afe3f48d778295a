#include "exec/mural_ops.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "catalog/tuple_codec.h"
#include "distance/bounded_myers.h"

namespace mural {

namespace {

/// Ephemeral pigeonhole index over a Psi join's inner keys at threshold k
/// (Li et al., "Pass-Join", VLDB 2011).  A key of length l is cut into k+1
/// segments; a key within edit distance k of it spends its edits in at
/// most k of them, so one segment reappears exactly in the probe, at a
/// shift Pass-Join's multi-match window bounds.  Candidates() looks up
/// only those substrings, so the join verifies a superset of its matches
/// rather than every pair: a hash collision adds a candidate, and a length
/// difference above k is itself a distance above k.
///
/// Keys whose segments would be shorter than kMinSegment phonemes (every
/// key shorter than k+1 among them) filter poorly or not at all; they sit
/// on an always-verify list per length, which every probe in the length
/// window takes whole.
class PsiJoinIndex {
 public:
  static constexpr size_t kMinSegment = 2;

  PsiJoinIndex(const std::vector<PhonemeString>& keys,
               const std::vector<bool>& valid, int k)
      : k_(static_cast<size_t>(k)),
        segments_(k_ + 1),
        min_segmented_(kMinSegment * segments_) {
    std::vector<std::pair<uint64_t, uint32_t>> entries;  // (key, inner id)
    for (uint32_t id = 0; id < keys.size(); ++id) {
      if (!valid[id]) continue;
      const std::string_view key = keys[id];
      const size_t l = key.size();
      if (l >= by_length_.size()) by_length_.resize(l + 1);
      if (l < min_segmented_) {
        by_length_[l].verify_all.push_back(id);
        continue;
      }
      by_length_[l].indexed = true;
      for (size_t i = 0; i < segments_; ++i) {
        const Segment seg = SegmentOf(l, i);
        entries.emplace_back(SegmentKey(key.substr(seg.start, seg.len), l, i),
                             id);
      }
    }
    // Sorted by (key, id): each posting list comes out ascending.
    std::sort(entries.begin(), entries.end());
    size_t capacity = 16;
    while (capacity < 2 * entries.size()) capacity *= 2;
    buckets_.resize(capacity);
    postings_.reserve(entries.size());
    for (size_t e = 0; e < entries.size();) {
      const uint64_t key = entries[e].first;
      Bucket bucket{key, static_cast<uint32_t>(postings_.size()), 0};
      for (; e < entries.size() && entries[e].first == key; ++e) {
        postings_.push_back(entries[e].second);
      }
      bucket.end = static_cast<uint32_t>(postings_.size());
      size_t h = key & (capacity - 1);
      while (buckets_[h].end != 0) h = (h + 1) & (capacity - 1);
      buckets_[h] = bucket;
    }
  }

  /// Sets `*out` to the ascending ids of every inner key that may lie
  /// within distance k of `probe`, each once.
  void Candidates(std::string_view probe, std::vector<uint32_t>* out) const {
    out->clear();
    const size_t len = probe.size();
    // Inner lengths within k of the probe's, up to the longest inner key.
    const size_t end = std::min(len + k_ + 1, by_length_.size());
    for (size_t l = len > k_ ? len - k_ : 0; l < end; ++l) {
      const LengthBucket& bucket = by_length_[l];
      out->insert(out->end(), bucket.verify_all.begin(),
                  bucket.verify_all.end());
      if (!bucket.indexed) continue;
      // Pass-Join's multi-match-aware window: segment i shifts by at most
      // i (the edits before it) and by at most k - i from the length
      // difference (the edits after it).
      const ptrdiff_t delta =
          static_cast<ptrdiff_t>(len) - static_cast<ptrdiff_t>(l);
      for (size_t i = 0; i < segments_; ++i) {
        const Segment seg = SegmentOf(l, i);
        const ptrdiff_t p = static_cast<ptrdiff_t>(seg.start);
        const ptrdiff_t before = static_cast<ptrdiff_t>(i);
        const ptrdiff_t after = static_cast<ptrdiff_t>(k_ - i);
        const ptrdiff_t first =
            std::max({p - before, p + delta - after, ptrdiff_t{0}});
        const ptrdiff_t last =
            std::min({p + before, p + delta + after,
                      static_cast<ptrdiff_t>(len) -
                          static_cast<ptrdiff_t>(seg.len)});
        for (ptrdiff_t at = first; at <= last; ++at) {
          const std::span<const uint32_t> ids = Find(SegmentKey(
              probe.substr(static_cast<size_t>(at), seg.len), l, i));
          out->insert(out->end(), ids.begin(), ids.end());
        }
      }
    }
    // A key may match in several segments and shifts.
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }

 private:
  struct Segment {
    size_t start, len;
  };
  struct Bucket {
    uint64_t key = 0;
    uint32_t begin = 0, end = 0;  // postings_ range; end == 0: empty slot
  };

  /// Pass-Join's even partition: the last l % (k+1) segments are one
  /// phoneme longer than the others.
  Segment SegmentOf(size_t l, size_t i) const {
    const size_t base = l / segments_;
    const size_t shorter = segments_ - l % segments_;
    return {i * base + (i > shorter ? i - shorter : 0),
            base + (i >= shorter ? 1 : 0)};
  }

  static uint64_t SegmentKey(std::string_view segment, size_t l, size_t i) {
    return Hash64(segment, (static_cast<uint64_t>(l) << 32) | i);
  }

  std::span<const uint32_t> Find(uint64_t key) const {
    const size_t mask = buckets_.size() - 1;
    for (size_t h = key & mask; buckets_[h].end != 0; h = (h + 1) & mask) {
      if (buckets_[h].key == key) {
        return std::span<const uint32_t>(postings_).subspan(
            buckets_[h].begin, buckets_[h].end - buckets_[h].begin);
      }
    }
    return {};
  }

  /// The inner keys of one length: verified whole (below min_segmented_),
  /// or indexed by segment.
  struct LengthBucket {
    std::vector<uint32_t> verify_all;
    bool indexed = false;
  };

  size_t k_;
  size_t segments_;
  size_t min_segmented_;
  std::vector<LengthBucket> by_length_;  // up to the longest inner key
  std::vector<Bucket> buckets_;          // open addressing, power-of-two size
  std::vector<uint32_t> postings_;
};

}  // namespace

LexJoinOp::LexJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner,
                     size_t outer_col, size_t inner_col, Options options)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_col_(outer_col),
      inner_col_(inner_col),
      options_(options) {
  Schema concat = Schema::Concat(outer_->output_schema(),
                                 inner_->output_schema());
  if (options_.tag_distance) {
    std::vector<Column> cols = concat.columns();
    cols.emplace_back("psi_distance", TypeId::kInt32);
    schema_ = Schema(std::move(cols));
  } else {
    schema_ = std::move(concat);
  }
}

Status LexJoinOp::OpenImpl() {
  results_.clear();
  result_pos_ = 0;
  const int k = options_.threshold >= 0 ? options_.threshold
                                        : ctx_->lexequal_threshold;
  const int dop = std::max(1, options_.dop);

  // Drain both children first; they are not thread-safe.
  MURAL_ASSIGN_OR_RETURN(const std::vector<Row> inner_rows,
                         CollectAll(inner_.get()));
  MURAL_ASSIGN_OR_RETURN(const std::vector<Row> outer_rows,
                         CollectAll(outer_.get()));
  // The join's own cache lookups and verified pairs are the stats delta
  // across the build and probe phases.
  ExecStats phase = ctx_->stats;

  // Build phase: the inner keys' phonemes, once for the whole join (§4.2:
  // materializing them avoids repeated conversions during join
  // processing).  Materialized keys are copied here, which costs less than
  // waking a worker; the keys that need a conversion run in morsels over
  // `convert`, which own disjoint ranges, so the writes to inner_phonemes
  // never alias.
  const size_t n_inner = inner_rows.size();
  std::vector<bool> inner_valid(n_inner);
  std::vector<PhonemeString> inner_phonemes(n_inner);
  std::vector<size_t> convert;
  for (size_t i = 0; i < n_inner; ++i) {
    const Value& v = inner_rows[i][inner_col_];
    inner_valid[i] = !v.is_null();
    if (!inner_valid[i]) continue;
    if (v.type() == TypeId::kUniText && v.unitext().has_phonemes()) {
      inner_phonemes[i] = *v.unitext().phonemes();
    } else {
      convert.push_back(i);
    }
  }
  MURAL_RETURN_IF_ERROR(
      GatherMorsels(
          ctx_, convert.size(), dop,
          [this, &inner_rows, &convert, &inner_phonemes](
              size_t begin, size_t end, ExecContext* wctx,
              std::vector<Row>*) {
            for (size_t j = begin; j < end; ++j) {
              const size_t i = convert[j];
              MURAL_ASSIGN_OR_RETURN(
                  inner_phonemes[i],
                  PhonemesOf(inner_rows[i][inner_col_], wctx));
            }
            return Status::OK();
          })
          .status());
  // A negative threshold admits no pair: every distance is >= 0.
  if (k < 0) std::fill(inner_valid.begin(), inner_valid.end(), false);
  const PsiJoinIndex index(inner_phonemes, inner_valid, std::max(k, 0));

  // Probe phase: each outer morsel joins against the index.  The outer
  // row's phonemes are looked up once; a matcher is prepared only for a
  // row with candidates, and verifies them in inner order.  The gather is
  // outer order x inner order at every DOP.
  MURAL_ASSIGN_OR_RETURN(
      results_,
      GatherMorsels(
          ctx_, outer_rows.size(), dop,
          [this, k, &index, &outer_rows, &inner_rows, &inner_phonemes](
              size_t begin, size_t end, ExecContext* wctx,
              std::vector<Row>* slot) {
            std::vector<uint32_t> candidates;
            for (size_t o = begin; o < end; ++o) {
              const Value& v = outer_rows[o][outer_col_];
              if (v.is_null()) continue;
              MURAL_ASSIGN_OR_RETURN(const PhonemeString outer_ph,
                                     PhonemesOf(v, wctx));
              index.Candidates(outer_ph, &candidates);
              if (candidates.empty()) continue;
              BoundedMyersMatcher matcher(outer_ph, k);
              for (const uint32_t i : candidates) {
                ++wctx->stats.predicate_evals;
                const int d = matcher.Distance(inner_phonemes[i],
                                               &wctx->stats.distance);
                if (d > k) continue;
                Row out;
                out.reserve(schema_.NumColumns());
                out.insert(out.end(), outer_rows[o].begin(),
                           outer_rows[o].end());
                out.insert(out.end(), inner_rows[i].begin(),
                           inner_rows[i].end());
                if (options_.tag_distance) out.push_back(Value::Int32(d));
                slot->push_back(std::move(out));
              }
            }
            return Status::OK();
          }));

  ExecStats delta = ctx_->stats;
  delta.SubtractBaseline(phase);
  cache_hits_ += delta.phoneme_cache_hits;
  cache_misses_ += delta.phoneme_cache_misses;
  verified_ += delta.predicate_evals;
  ran_ = true;
  return Status::OK();
}

StatusOr<bool> LexJoinOp::NextImpl(Row* out) {
  if (result_pos_ >= results_.size()) return false;
  *out = std::move(results_[result_pos_++]);
  CountRow();
  return true;
}

Status LexJoinOp::CloseImpl() {
  results_.clear();
  result_pos_ = 0;
  return Status::OK();
}

std::string LexJoinOp::DisplayName() const {
  std::string name = StringFormat(
      "LexJoin(%s ~ %s, t=%d%s",
      outer_->output_schema().column(outer_col_).name.c_str(),
      inner_->output_schema().column(inner_col_).name.c_str(),
      options_.threshold >= 0 ? options_.threshold
                              : ctx_->lexequal_threshold,
      options_.tag_distance ? ", tagged" : "");
  if (options_.dop > 1) name += StringFormat(", dop=%d", options_.dop);
  // Run counters exist only once Open has run, at every DOP; EXPLAIN
  // ANALYZE re-renders this name so they show up like the closure-cache
  // stats do, and a plain EXPLAIN shows none.
  if (cache_hits_ + cache_misses_ > 0) {
    name += StringFormat(", cache h=%llu m=%llu",
                         static_cast<unsigned long long>(cache_hits_),
                         static_cast<unsigned long long>(cache_misses_));
  }
  if (ran_) {
    name += StringFormat(", verified=%llu",
                         static_cast<unsigned long long>(verified_));
  }
  name += ")";
  return name;
}

SemJoinOp::SemJoinOp(ExecContext* ctx, OpPtr lhs_child, OpPtr rhs_child,
                     size_t lhs_col, size_t rhs_col, Options options)
    : PhysicalOp(ctx),
      lhs_(std::move(lhs_child)),
      rhs_(std::move(rhs_child)),
      lhs_col_(lhs_col),
      rhs_col_(rhs_col),
      options_(options),
      schema_(Schema::Concat(lhs_->output_schema(),
                             rhs_->output_schema())) {}

Status SemJoinOp::ComputeClosureFor(const Value& rhs_value) {
  const Taxonomy& tax = *ctx_->taxonomy;
  const std::vector<SynsetId> roots = tax.Lookup(rhs_value.unitext());
  if (roots.empty()) {
    local_closure_.clear();
    current_closure_ = &local_closure_;
    return Status::OK();
  }
  if (options_.use_closure_cache && ctx_->closure_cache != nullptr &&
      roots.size() == 1) {
    const uint64_t misses_before = ctx_->closure_cache->misses();
    current_closure_ = &ctx_->closure_cache->Get(roots[0]);
    if (ctx_->closure_cache->misses() > misses_before) {
      ++ctx_->stats.closure_computations;
    } else {
      ++ctx_->stats.closure_reuses;
    }
    return Status::OK();
  }
  ++ctx_->stats.closure_computations;
  local_closure_ = tax.TransitiveClosureOfAll(roots);
  current_closure_ = &local_closure_;
  return Status::OK();
}

Status SemJoinOp::OpenImpl() {
  if (ctx_->taxonomy == nullptr) {
    return Status::InvalidArgument(
        "SemJoin requires a taxonomy pinned in the session");
  }
  // Materialize the probe (LHS) side, then the RHS (outer) side; sort the
  // latter for unique-closure processing when requested.
  MURAL_ASSIGN_OR_RETURN(lhs_rows_, CollectAll(lhs_.get()));
  MURAL_ASSIGN_OR_RETURN(rhs_rows_, CollectAll(rhs_.get()));
  if (options_.sort_unique_rhs) {
    std::stable_sort(rhs_rows_.begin(), rhs_rows_.end(),
                     [this](const Row& a, const Row& b) {
                       return a[rhs_col_].Compare(b[rhs_col_]) < 0;
                     });
  }
  rhs_pos_ = 0;
  lhs_pos_ = 0;
  rhs_open_ = false;
  current_closure_ = nullptr;
  last_rhs_key_.reset();
  return Status::OK();
}

StatusOr<bool> SemJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!rhs_open_) {
      if (rhs_pos_ >= rhs_rows_.size()) return false;
      const Value& rhs_value = rhs_rows_[rhs_pos_][rhs_col_];
      if (rhs_value.is_null() ||
          rhs_value.type() != TypeId::kUniText) {
        ++rhs_pos_;
        continue;
      }
      // With sorted RHS, equal consecutive values reuse the closure even
      // without the cache.
      const std::string key = rhs_value.unitext().text() + "\x1f" +
                              std::to_string(rhs_value.unitext().lang());
      if (!options_.sort_unique_rhs || !last_rhs_key_.has_value() ||
          *last_rhs_key_ != key) {
        MURAL_RETURN_IF_ERROR(ComputeClosureFor(rhs_value));
        last_rhs_key_ = key;
      } else {
        ++ctx_->stats.closure_reuses;
      }
      rhs_open_ = true;
      lhs_pos_ = 0;
    }
    const Row& rhs_row = rhs_rows_[rhs_pos_];
    while (lhs_pos_ < lhs_rows_.size()) {
      const Row& lhs_row = lhs_rows_[lhs_pos_++];
      const Value& lhs_value = lhs_row[lhs_col_];
      if (lhs_value.is_null() || lhs_value.type() != TypeId::kUniText) {
        continue;
      }
      ++ctx_->stats.predicate_evals;
      const std::vector<SynsetId> ids =
          ctx_->taxonomy->Lookup(lhs_value.unitext());
      bool match = false;
      for (SynsetId id : ids) {
        if (current_closure_->count(id) > 0) {
          match = true;
          break;
        }
      }
      if (!match) continue;
      out->clear();
      out->reserve(schema_.NumColumns());
      out->insert(out->end(), lhs_row.begin(), lhs_row.end());
      out->insert(out->end(), rhs_row.begin(), rhs_row.end());
      CountRow();
      return true;
    }
    rhs_open_ = false;
    ++rhs_pos_;
  }
}

Status SemJoinOp::CloseImpl() {
  lhs_rows_.clear();
  rhs_rows_.clear();
  current_closure_ = nullptr;
  return Status::OK();
}

std::string SemJoinOp::DisplayName() const {
  return StringFormat(
      "SemJoin(%s under %s%s%s)",
      lhs_->output_schema().column(lhs_col_).name.c_str(),
      rhs_->output_schema().column(rhs_col_).name.c_str(),
      options_.use_closure_cache ? "" : ", no-cache",
      options_.sort_unique_rhs ? ", sorted-unique" : "");
}

}  // namespace mural

namespace mural {

LexIndexJoinOp::LexIndexJoinOp(ExecContext* ctx, OpPtr outer,
                               const TableInfo* inner_table,
                               const IndexInfo* inner_index,
                               size_t outer_col, int threshold)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_index_(inner_index),
      outer_col_(outer_col),
      threshold_(threshold),
      schema_(Schema::Concat(outer_->output_schema(),
                             inner_table->schema)) {}

Status LexIndexJoinOp::OpenImpl() {
  outer_valid_ = false;
  matches_.clear();
  match_pos_ = 0;
  return outer_->Open();
}

StatusOr<bool> LexIndexJoinOp::NextImpl(Row* out) {
  const int k = threshold_ >= 0 ? threshold_ : ctx_->lexequal_threshold;
  std::string record;
  while (true) {
    if (!outer_valid_) {
      MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&outer_row_));
      if (!more) return false;
      const Value& v = outer_row_[outer_col_];
      matches_.clear();
      match_pos_ = 0;
      if (!v.is_null()) {
        MURAL_ASSIGN_OR_RETURN(const PhonemeString ph, PhonemesOf(v, ctx_));
        ++ctx_->stats.index_probes;
        MURAL_RETURN_IF_ERROR(inner_index_->index->SearchWithin(
            Value::Text(ph), k, &matches_));
      }
      outer_valid_ = true;
    }
    while (match_pos_ < matches_.size()) {
      const Rid rid = matches_[match_pos_++];
      MURAL_RETURN_IF_ERROR(inner_table_->heap->Get(rid, &record));
      Row inner_row;
      MURAL_RETURN_IF_ERROR(TupleCodec::Deserialize(inner_table_->schema,
                                                    record, &inner_row));
      out->clear();
      out->reserve(schema_.NumColumns());
      out->insert(out->end(), outer_row_.begin(), outer_row_.end());
      out->insert(out->end(), inner_row.begin(), inner_row.end());
      CountRow();
      return true;
    }
    outer_valid_ = false;
  }
}

Status LexIndexJoinOp::CloseImpl() {
  matches_.clear();
  return outer_->Close();
}

std::string LexIndexJoinOp::DisplayName() const {
  return StringFormat("LexIndexJoin(%s ~ %s.%s via %s, t=%d)",
                      outer_->output_schema().column(outer_col_).name.c_str(),
                      inner_table_->name.c_str(),
                      inner_index_->column.c_str(),
                      inner_index_->name.c_str(),
                      threshold_ >= 0 ? threshold_
                                      : ctx_->lexequal_threshold);
}

}  // namespace mural
