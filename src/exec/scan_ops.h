// Scan operators: the one heap-scan leaf (SeqScanOp, which also carries
// the Psi selection pushed into the scan, paper §4.2) and index scans
// (B-Tree equality probes, M-Tree metric probes, MDI candidate probes with
// recheck).

#pragma once

#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

/// The Psi(col, constant) conjunct a keyed scan matches before it
/// deserializes a row.
struct PsiScanKey {
  size_t col = 0;
  Value probe;
  /// < 0: use ctx->lexequal_threshold.
  int threshold_override = -1;
};

/// The one heap-scan leaf, at any DOP and batch size: a plain scan, a
/// scan with a residual predicate, and the Psi scan (with a key) are the
/// same page walk.
///
/// Workers claim page-range morsels over the heap's page directory
/// (GatherMorsels, which sizes them from the page count alone; inline at
/// DOP 1) and read records in place through
/// one read guard per page.  Per record, a keyed scan first peeks only the
/// key column out of the serialized tuple (TupleCodec::PeekUniText,
/// zero-copy) and runs a BoundedMyersMatcher prepared once per morsel on
/// the probe's phonemes, hoisted once at Open; rows that pass are
/// deserialized and then filtered by `residual` (late materialization).
///
/// The scan materializes at Open.  Determinism: GatherMorsels filters
/// each morsel into its own slot under its own WorkerClone() context and
/// concatenates slots and merges stats in morsel order, so rows, their
/// order, and ExecStats do not depend on DOP.  Next and NextBatch both
/// replay the gathered rows.
class SeqScanOp : public PhysicalOp {
 public:
  /// `residual` may be null.  `dop` > 1 with a thread pool in the context
  /// runs the morsels on the pool.
  SeqScanOp(ExecContext* ctx, const TableInfo* table,
            std::optional<PsiScanKey> key = std::nullopt,
            ExprPtr residual = nullptr, int dop = 1);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] StatusOr<bool> NextBatchImpl(RowBatch* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return table_->schema; }
  /// "LexSelect(...)" for a keyed scan, "SeqScan(T)" otherwise.
  std::string DisplayName() const override;

 private:
  /// Scans heap pages [begin, end) into `slot`.  `probe_phonemes` is null
  /// for an unkeyed scan.
  [[nodiscard]] Status ScanPages(size_t begin, size_t end, int k,
                                 const PhonemeString* probe_phonemes,
                                 ExecContext* wctx, std::vector<Row>* slot);

  const TableInfo* table_;
  std::optional<PsiScanKey> key_;
  ExprPtr residual_;
  int dop_;

  std::vector<Row> results_;
  size_t result_pos_ = 0;
};

/// What an index scan probes for.
struct IndexProbe {
  enum class Kind { kEqual, kWithin };
  Kind kind = Kind::kEqual;
  Value key;
  int radius = 0;  // kWithin

  std::string ToString() const;
};

/// Index scan: probes the access method for rids, fetches heap tuples, and
/// applies an optional residual predicate.
///
/// The residual matters twice in this system: MDI probes return candidate
/// supersets that must be re-verified (paper's outside-the-server index
/// path), and LexEQUAL index scans still need the "IN <languages>" filter.
class IndexScanOp : public PhysicalOp {
 public:
  IndexScanOp(ExecContext* ctx, const TableInfo* table,
              const IndexInfo* index, IndexProbe probe,
              ExprPtr residual = nullptr)
      : PhysicalOp(ctx),
        table_(table),
        index_(index),
        probe_(std::move(probe)),
        residual_(std::move(residual)) {}

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return table_->schema; }
  std::string DisplayName() const override;

 private:
  const TableInfo* table_;
  const IndexInfo* index_;
  IndexProbe probe_;
  ExprPtr residual_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

}  // namespace mural
