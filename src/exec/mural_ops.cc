#include "exec/mural_ops.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "catalog/tuple_codec.h"

namespace mural {

LexSelectOp::LexSelectOp(ExecContext* ctx, const TableInfo* table,
                         size_t key_col, Value probe, int threshold_override,
                         ExprPtr residual, int dop, size_t morsel_pages)
    : PhysicalOp(ctx),
      table_(table),
      key_col_(key_col),
      probe_(std::move(probe)),
      threshold_override_(threshold_override),
      residual_(std::move(residual)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages == 0 ? kDefaultMorselPages : morsel_pages) {}

Status LexSelectOp::OpenImpl() {
  results_.clear();
  result_pos_ = 0;
  if (probe_.is_null()) return Status::OK();  // NULL never matches
  const int k = threshold_override_ >= 0 ? threshold_override_
                                         : ctx_->lexequal_threshold;
  // Hoisted once per scan: one phoneme lookup for the probe, however many
  // morsels share it.
  MURAL_ASSIGN_OR_RETURN(const PhonemeString probe_phonemes,
                         PhonemesOf(probe_, ctx_));

  const size_t n = table_->heap->pages().size();
  const size_t num_morsels =
      n == 0 ? 0 : (n + morsel_pages_ - 1) / morsel_pages_;
  std::vector<std::vector<Row>> slots(num_morsels);
  std::vector<ExecContext> worker_ctxs(num_morsels, ctx_->WorkerClone());
  MURAL_RETURN_IF_ERROR(ParallelMorsels(
      ctx_->thread_pool, n, morsel_pages_, dop_,
      [this, k, &probe_phonemes, &slots, &worker_ctxs](
          size_t m, size_t begin, size_t end) {
        return ScanPages(begin, end, k, probe_phonemes, &worker_ctxs[m],
                         &slots[m]);
      }));

  // Gather: flatten slots in morsel-index order (= page chain order) and
  // merge stats the same way.
  size_t total = 0;
  for (const std::vector<Row>& slot : slots) total += slot.size();
  results_.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    ctx_->stats.Merge(worker_ctxs[m].stats);
    for (Row& r : slots[m]) results_.push_back(std::move(r));
  }
  return Status::OK();
}

Status LexSelectOp::ScanPages(size_t begin, size_t end, int k,
                              const PhonemeString& probe_phonemes,
                              ExecContext* wctx, std::vector<Row>* slot) {
  // The matcher pre-builds the kernel's Peq table for the probe, leaving
  // only the column loop as per-row work.  It keeps scratch state, so each
  // morsel prepares its own.
  BoundedMyersMatcher matcher(probe_phonemes, k);
  const Schema& schema = table_->schema;
  const bool plain_text = schema.column(key_col_).type == TypeId::kText;
  BufferPool* pool = table_->heap->pool();
  const std::vector<PageId>& pages = table_->heap->pages();
  UniTextColumnView view;
  for (size_t p = begin; p < end; ++p) {
    // One Fetch and one shared latch per page; records are matched in
    // place from the page bytes and deserialized only on a hit.
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool->Fetch(pages[p]));
    const Page* page = guard.get();
    for (SlotId s = 0; s < page->NumSlots(); ++s) {
      StatusOr<Slice> record = page->Get(s);
      if (!record.ok()) continue;  // tombstone
      MURAL_RETURN_IF_ERROR(TupleCodec::PeekUniText(
          schema, record->ToStringView(), key_col_, &view));
      if (view.is_null) continue;  // NULL never matches (SQL WHERE)
      ++wctx->stats.predicate_evals;
      int d;
      if (view.has_phonemes) {
        d = matcher.Distance(view.phonemes, &wctx->stats.distance);
      } else {
        const PhonemeString ph = TransformPhonemesCounted(
            view.text, plain_text ? lang::kEnglish : view.lang, wctx);
        d = matcher.Distance(ph, &wctx->stats.distance);
      }
      if (d > k) continue;
      Row row;
      MURAL_RETURN_IF_ERROR(
          TupleCodec::Deserialize(schema, record->ToStringView(), &row));
      if (residual_ != nullptr) {
        MURAL_ASSIGN_OR_RETURN(const bool pass,
                               EvalPredicate(*residual_, row, wctx));
        if (!pass) continue;
      }
      slot->push_back(std::move(row));
    }
  }
  return Status::OK();
}

StatusOr<bool> LexSelectOp::NextImpl(Row* out) {
  if (result_pos_ >= results_.size()) return false;
  *out = std::move(results_[result_pos_++]);
  CountRow();
  return true;
}

StatusOr<bool> LexSelectOp::NextBatchImpl(RowBatch* out) {
  while (result_pos_ < results_.size() && !out->full()) {
    *out->PushRow() = std::move(results_[result_pos_++]);
  }
  CountRows(out->num_selected());
  return result_pos_ < results_.size() || !out->empty();
}

Status LexSelectOp::CloseImpl() {
  results_.clear();
  result_pos_ = 0;
  return Status::OK();
}

std::string LexSelectOp::DisplayName() const {
  std::string out = "LexSelect(" + table_->name + "." +
                    table_->schema.column(key_col_).name + " LexEQUAL " +
                    probe_.ToString();
  if (threshold_override_ >= 0) {
    out += StringFormat(" {t=%d}", threshold_override_);
  }
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  out += StringFormat(", batch=%zu", ctx_->batch_size);
  if (dop_ > 1) out += StringFormat(", dop=%d", dop_);
  out += ")";
  return out;
}

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
  inner_rows_.clear();
  inner_phonemes_.clear();
  inner_valid_.clear();
  results_.clear();
  result_pos_ = 0;
  const int k = options_.threshold >= 0 ? options_.threshold
                                        : ctx_->lexequal_threshold;
  const int dop = std::max(1, options_.dop);
  const size_t morsel = std::max<size_t>(1, options_.morsel_size);

  // Drain the inner (build) side; children are not thread-safe.
  MURAL_RETURN_IF_ERROR(inner_->Open());
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, inner_->Next(&row));
    if (!more) break;
    inner_valid_.push_back(!row[inner_col_].is_null());
    inner_rows_.push_back(row);
  }
  MURAL_RETURN_IF_ERROR(inner_->Close());

  // Build phase: convert the inner keys' phonemes in morsels.  Morsels own
  // disjoint index ranges, so the writes to inner_phonemes_ never alias;
  // each morsel gets its own context clone so stats accumulation is
  // race-free (merged below, in order).
  const size_t n_inner = inner_rows_.size();
  inner_phonemes_.resize(n_inner);
  const size_t build_morsels = (n_inner + morsel - 1) / morsel;
  std::vector<ExecContext> build_ctxs(build_morsels, ctx_->WorkerClone());
  MURAL_RETURN_IF_ERROR(ParallelMorsels(
      ctx_->thread_pool, n_inner, morsel, dop,
      [this, &build_ctxs](size_t m, size_t begin, size_t end) {
        ExecContext* wctx = &build_ctxs[m];
        for (size_t i = begin; i < end; ++i) {
          if (!inner_valid_[i]) continue;
          MURAL_ASSIGN_OR_RETURN(inner_phonemes_[i],
                                 PhonemesOf(inner_rows_[i][inner_col_], wctx));
        }
        return Status::OK();
      }));

  // Drain the outer (probe) side.
  MURAL_RETURN_IF_ERROR(outer_->Open());
  std::vector<Row> outer_rows;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&row));
    if (!more) break;
    outer_rows.push_back(row);
  }

  // Probe phase: each outer morsel joins against the whole inner side into
  // its own result slot.  The outer row's phonemes are looked up once and
  // prepared once as a matcher, which every inner key then runs against.
  const size_t n_outer = outer_rows.size();
  const size_t probe_morsels = (n_outer + morsel - 1) / morsel;
  std::vector<std::vector<Row>> slots(probe_morsels);
  std::vector<ExecContext> probe_ctxs(probe_morsels, ctx_->WorkerClone());
  MURAL_RETURN_IF_ERROR(ParallelMorsels(
      ctx_->thread_pool, n_outer, morsel, dop,
      [this, k, &outer_rows, &slots, &probe_ctxs](size_t m, size_t begin,
                                                  size_t end) {
        ExecContext* wctx = &probe_ctxs[m];
        std::vector<Row>* slot = &slots[m];
        for (size_t o = begin; o < end; ++o) {
          const Value& v = outer_rows[o][outer_col_];
          if (v.is_null()) continue;
          MURAL_ASSIGN_OR_RETURN(const PhonemeString outer_ph,
                                 PhonemesOf(v, wctx));
          BoundedMyersMatcher matcher(outer_ph, k);
          for (size_t i = 0; i < inner_rows_.size(); ++i) {
            if (!inner_valid_[i]) continue;
            ++wctx->stats.predicate_evals;
            const int d =
                matcher.Distance(inner_phonemes_[i], &wctx->stats.distance);
            if (d > k) continue;
            Row out;
            out.reserve(schema_.NumColumns());
            out.insert(out.end(), outer_rows[o].begin(), outer_rows[o].end());
            out.insert(out.end(), inner_rows_[i].begin(),
                       inner_rows_[i].end());
            if (options_.tag_distance) out.push_back(Value::Int32(d));
            slot->push_back(std::move(out));
          }
        }
        return Status::OK();
      }));

  // Gather: merge stats and flatten slots in morsel-index order, which is
  // outer order x inner order at every DOP.
  for (const ExecContext& wctx : build_ctxs) {
    ctx_->stats.Merge(wctx.stats);
    cache_hits_ += wctx.stats.phoneme_cache_hits;
    cache_misses_ += wctx.stats.phoneme_cache_misses;
  }
  size_t total = 0;
  for (const std::vector<Row>& slot : slots) total += slot.size();
  results_.reserve(total);
  for (size_t m = 0; m < probe_morsels; ++m) {
    ctx_->stats.Merge(probe_ctxs[m].stats);
    cache_hits_ += probe_ctxs[m].stats.phoneme_cache_hits;
    cache_misses_ += probe_ctxs[m].stats.phoneme_cache_misses;
    for (Row& r : slots[m]) results_.push_back(std::move(r));
  }
  return Status::OK();
}

StatusOr<bool> LexJoinOp::NextImpl(Row* out) {
  if (result_pos_ >= results_.size()) return false;
  *out = std::move(results_[result_pos_++]);
  CountRow();
  return true;
}

Status LexJoinOp::CloseImpl() {
  inner_rows_.clear();
  inner_phonemes_.clear();
  inner_valid_.clear();
  results_.clear();
  result_pos_ = 0;
  const Status outer_st = outer_->Close();
  const Status inner_st = inner_->Close();  // no-op unless Open failed
  MURAL_RETURN_IF_ERROR(outer_st);
  return inner_st;
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
  // Cache counters exist only once Open has run, at every DOP; EXPLAIN
  // ANALYZE re-renders this name so they show up like the closure-cache
  // stats do, and a plain EXPLAIN shows none.
  if (cache_hits_ + cache_misses_ > 0) {
    name += StringFormat(", cache h=%llu m=%llu",
                         static_cast<unsigned long long>(cache_hits_),
                         static_cast<unsigned long long>(cache_misses_));
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
  // Materialize the probe (LHS) side.
  MURAL_RETURN_IF_ERROR(lhs_->Open());
  lhs_rows_.clear();
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, lhs_->Next(&row));
    if (!more) break;
    lhs_rows_.push_back(row);
  }
  MURAL_RETURN_IF_ERROR(lhs_->Close());

  // Materialize the RHS (outer) side; sort for unique-closure processing
  // when requested.
  MURAL_RETURN_IF_ERROR(rhs_->Open());
  rhs_rows_.clear();
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, rhs_->Next(&row));
    if (!more) break;
    rhs_rows_.push_back(row);
  }
  MURAL_RETURN_IF_ERROR(rhs_->Close());
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
  // Both sides are normally drained and closed in Open; these are no-ops
  // unless a failed Open left one mid-drain.
  const Status lhs_st = lhs_->Close();
  const Status rhs_st = rhs_->Close();
  MURAL_RETURN_IF_ERROR(lhs_st);
  return rhs_st;
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
