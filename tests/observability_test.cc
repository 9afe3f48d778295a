// Observability-layer tests: metrics registry semantics, deterministic
// operator trace spans under a fake SpanClock, ExecStats merge
// completeness, plan-vs-actual q-error feedback on seeded Psi/Omega
// workloads, and the EXPLAIN ANALYZE / SET SLOW_QUERY_MILLIS SQL surface.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "engine/database.h"
#include "exec/basic_ops.h"
#include "mural/algebra.h"
#include "session/session.h"

namespace mural {
namespace {

// Every estimate in the seeded workloads below must land within this
// factor of the observed cardinality.  The paper's §3.4 estimators are
// approximate (MFV phoneme probes + tail inflation), so the bound is
// loose but fixed: a regression that breaks estimation blows past it.
constexpr double kQErrorBound = 64.0;

// ------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, CountersGaugesAndHistogramsAreStable) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.registry.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.GetCounter("test.registry.counter"), c);
  const uint64_t before = c->value();
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), before + 5);

  Gauge* g = reg.GetGauge("test.registry.gauge");
  EXPECT_EQ(reg.GetGauge("test.registry.gauge"), g);
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  g->Add(-9);
  EXPECT_EQ(g->value(), -2);
  g->Set(0);

  Histogram* h = reg.GetHistogram("test.registry.hist", {1.0, 10.0});
  EXPECT_EQ(reg.GetHistogram("test.registry.hist", {99.0}), h);
  ASSERT_EQ(h->bounds().size(), 2u);  // first registration's bounds win
  const uint64_t count0 = h->count();
  h->Observe(0.5);   // bucket le=1
  h->Observe(5.0);   // bucket le=10
  h->Observe(100.0); // +Inf bucket
  EXPECT_EQ(h->count(), count0 + 3);
  EXPECT_GE(h->bucket_count(2), 1u);
}

TEST(MetricsRegistryTest, TextExpositionRendersPrometheusFormat) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.exposition.counter")->Add(3);
  reg.GetGauge("test.exposition.gauge")->Set(11);
  Histogram* h = reg.GetHistogram("test.exposition.hist", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);

  const std::string text = reg.TextExposition();
  // Dots become underscores under the mural_ prefix, with # TYPE lines.
  EXPECT_NE(text.find("# TYPE mural_test_exposition_counter counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mural_test_exposition_gauge 11\n"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf, _sum, _count.
  EXPECT_NE(text.find("mural_test_exposition_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mural_test_exposition_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mural_test_exposition_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mural_test_exposition_hist_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mural_test_exposition_hist_sum 11\n"),
            std::string::npos);
}

// ------------------------------------------------------------------
// ExecStats merge completeness.

TEST(ExecStatsTest, ForEachCounterVisitsExactlyKNumCounters) {
  ExecStats s;
  size_t fields = 0;
  ExecStats::ForEachCounter(s, [&](const char*, uint64_t&) { ++fields; });
  EXPECT_EQ(fields, ExecStats::kNumCounters);
}

TEST(ExecStatsTest, MergeAddsEveryCounter) {
  // The silent-drop regression guard: set EVERY field to 1 on both sides,
  // merge, and demand every field reads 2.  A counter missing from the
  // visitor would stay at 1 (and the sizeof static_assert would already
  // have refused to compile a field missing from kNumCounters).
  ExecStats a, b;
  ExecStats::ForEachCounter(a, [](const char*, uint64_t& v) { v = 1; });
  ExecStats::ForEachCounter(b, [](const char*, uint64_t& v) { v = 1; });
  a.Merge(b);
  ExecStats::ForEachCounter(
      static_cast<const ExecStats&>(a),
      [](const char* name, const uint64_t& v) { EXPECT_EQ(v, 2u) << name; });

  a.SubtractBaseline(b);
  ExecStats::ForEachCounter(
      static_cast<const ExecStats&>(a),
      [](const char* name, const uint64_t& v) { EXPECT_EQ(v, 1u) << name; });
}

// ------------------------------------------------------------------
// QError definition.

TEST(QErrorTest, SymmetricRatioFlooredAtOne) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(1, 100), 100.0);
  EXPECT_DOUBLE_EQ(QError(100, 1), 100.0);
  // Both sides floor at one row: a zero estimate against zero rows is
  // perfect, and zero vs five is 5x, not infinite.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(QError(5, 0), 5.0);
}

// ------------------------------------------------------------------
// Deterministic spans under a fake clock.

std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeNow() {
  // Every read advances virtual time by exactly 1 ms.
  return g_fake_now.fetch_add(1'000'000, std::memory_order_relaxed) +
         1'000'000;
}

TEST(SpanClockTest, FakeClockMakesSpansExact) {
  g_fake_now.store(0);
  SpanClock::NowFn prev = SpanClock::SetNowFnForTest(&FakeNow);

  Gauge* spans =
      MetricsRegistry::Global().GetGauge("exec.spans_in_progress");
  const int64_t gauge0 = spans->value();

  ExecContext ctx;
  // Pin the tuple-at-a-time drive: the call-count arithmetic below counts
  // one clock tick per Next(), which the batch path amortizes away.
  ctx.batch_size = 0;
  Schema schema({{"id", TypeId::kInt32}});
  std::vector<Row> data;
  for (int i = 0; i < 10; ++i) data.push_back({Value::Int32(i)});
  ValuesOp op(&ctx, schema, data);
  auto rows = CollectAll(&op);
  SpanClock::SetNowFnForTest(prev);

  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  // Each timed wrapper reads the clock twice, so each call costs exactly
  // one 1 ms tick: 1 Open + 11 Next (10 rows + exhaustion) + 1 Close.
  EXPECT_EQ(op.span().open_ns, 1'000'000u);
  EXPECT_EQ(op.span().next_ns, 11'000'000u);
  EXPECT_EQ(op.span().close_ns, 1'000'000u);
  EXPECT_DOUBLE_EQ(op.span().TotalMillis(), 13.0);
  // The span gauge is balanced after a completed query.
  EXPECT_EQ(spans->value(), gauge0);

  const std::string trace = TraceTree(op);
  EXPECT_NE(trace.find("actual rows=10"), std::string::npos) << trace;
  EXPECT_NE(trace.find("time=13.000ms"), std::string::npos) << trace;
  // A plan that never touches the buffer pool reports no storage time.
  EXPECT_EQ(op.span().storage_ns, 0u);
  EXPECT_EQ(trace.find("storage="), std::string::npos) << trace;
}

// An operator that behaves like a scan: each produced row "spends" 2 ms
// in the buffer pool by bumping the fetch_nanos counter the way
// BufferPool::Fetch does.
class FetchingOp final : public PhysicalOp {
 public:
  FetchingOp(ExecContext* ctx, const Schema& schema)
      : PhysicalOp(ctx), schema_(schema) {}
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override { return "FetchingOp"; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  StatusOr<bool> NextImpl(Row* out) override {
    if (done_) return false;
    done_ = true;
    MetricsRegistry::Global()
        .GetCounter("storage.buffer_pool.fetch_nanos")
        ->Add(2'000'000);
    *out = {Value::Int32(1)};
    CountRow();
    return true;
  }
  Status CloseImpl() override { return Status::OK(); }

 private:
  Schema schema_;
  bool done_ = false;
};

TEST(SpanClockTest, FetchNanosDeltaAttributedToOperatorSpan) {
  g_fake_now.store(0);
  SpanClock::NowFn prev = SpanClock::SetNowFnForTest(&FakeNow);
  ExecContext ctx;
  Schema schema({{"id", TypeId::kInt32}});
  FetchingOp op(&ctx, schema);
  auto rows = CollectAll(&op);
  SpanClock::SetNowFnForTest(prev);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  // Exactly the counter delta the operator's Next calls covered.
  EXPECT_EQ(op.span().storage_ns, 2'000'000u);
  const std::string trace = TraceTree(op);
  EXPECT_NE(trace.find("storage=2.000ms"), std::string::npos) << trace;
}

// ------------------------------------------------------------------
// Plan-vs-actual feedback on seeded engine workloads.

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto session = db_->Connect();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
  }

  void LoadNames(size_t bases, size_t variants) {
    names_schema_ = Schema({{"id", TypeId::kInt32},
                            {"name", TypeId::kUniText, /*mat=*/true}});
    ASSERT_TRUE(db_->CreateTable("names", names_schema_).ok());
    NameGenOptions options;
    options.seed = 99;
    options.num_bases = bases;
    options.variants_per_base = variants;
    names_ = GenerateNames(options);
    for (const NameRecord& rec : names_) {
      ASSERT_TRUE(db_->Insert("names",
                              {Value::Int32(static_cast<int32_t>(rec.id)),
                               Value::Uni(rec.name)})
                      .ok());
    }
    ASSERT_TRUE(db_->Analyze("names").ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  Schema names_schema_;
  std::vector<NameRecord> names_;
};

TEST_F(ObservabilityTest, PsiScanQErrorBoundedAtAllThresholds) {
  LoadNames(/*bases=*/50, /*variants=*/3);
  Histogram* qerrors = MetricsRegistry::Global().GetHistogram(
      "optimizer.qerror", DefaultRatioBounds());
  for (const int threshold : {1, 2, 3}) {
    const uint64_t observed0 = qerrors->count();
    auto plan = MuralBuilder::Scan("names", names_schema_)
                    .PsiSelect("name", names_[0].name, {}, threshold)
                    .Build();
    auto result = session_->Query(plan);
    ASSERT_TRUE(result.ok()) << "threshold=" << threshold;
    ASSERT_FALSE(result->feedback.empty());
    EXPECT_GE(result->max_qerror, 1.0);
    EXPECT_LE(result->max_qerror, kQErrorBound)
        << "threshold=" << threshold << "\n" << result->explain_analyze;
    for (const NodeFeedback& fb : result->feedback) {
      EXPECT_GE(fb.estimated_rows, 0) << fb.op;
      EXPECT_LE(fb.qerror, kQErrorBound)
          << fb.op << " est=" << fb.estimated_rows
          << " actual=" << fb.actual_rows;
    }
    // Every estimated node feeds the process-wide q-error histogram.
    EXPECT_EQ(qerrors->count() - observed0, result->feedback.size());
  }
}

TEST_F(ObservabilityTest, PsiJoinQErrorBoundedAtAllThresholds) {
  LoadNames(/*bases=*/40, /*variants=*/3);
  ASSERT_TRUE(db_->CreateTable("others", names_schema_).ok());
  for (size_t i = 0; i < (names_.size() * 3) / 5; ++i) {
    const NameRecord& rec = names_[i];
    ASSERT_TRUE(db_->Insert("others",
                            {Value::Int32(static_cast<int32_t>(rec.id)),
                             Value::Uni(rec.name)})
                    .ok());
  }
  ASSERT_TRUE(db_->Analyze("others").ok());

  for (const int threshold : {1, 2, 3}) {
    auto plan = MuralBuilder::Scan("names", names_schema_)
                    .PsiJoin(MuralBuilder::Scan("others", names_schema_),
                             "name", "name", threshold)
                    .Build();
    auto result = session_->Query(plan);
    ASSERT_TRUE(result.ok()) << "threshold=" << threshold;
    ASSERT_FALSE(result->feedback.empty());
    EXPECT_LE(result->max_qerror, kQErrorBound)
        << "threshold=" << threshold << "\n" << result->explain_analyze;
    // The join's own estimate must be attributed to the join node.
    bool saw_join = false;
    for (const NodeFeedback& fb : result->feedback) {
      if (fb.depth == 0) {
        saw_join = true;
        EXPECT_GT(fb.estimated_rows, 0) << fb.op;
      }
    }
    EXPECT_TRUE(saw_join);
  }
}

TEST_F(ObservabilityTest, OmegaClosureQErrorBounded) {
  TaxonomyGenOptions options;
  options.seed = 7;
  options.base_synsets = 300;
  options.languages = {lang::kEnglish, lang::kTamil};
  GeneratedTaxonomy gen = GenerateTaxonomy(options);
  const std::vector<SynsetId> bases = gen.base_synsets;
  const Taxonomy* tax = gen.taxonomy.get();
  Schema schema({{"cat", TypeId::kUniText}});
  ASSERT_TRUE(db_->CreateTable("docs", schema).ok());
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const Synset& s = tax->Get(bases[rng.Uniform(bases.size())]);
    ASSERT_TRUE(db_->Insert("docs", {Value::Uni(s.lemma, s.lang)}).ok());
  }
  ASSERT_TRUE(db_->Analyze("docs").ok());
  ASSERT_TRUE(db_->LoadTaxonomy(std::move(gen.taxonomy)).ok());
  tax = db_->taxonomy();

  for (const size_t probe_index : {3u, 10u, 20u}) {
    const Synset& probe = tax->Get(bases[probe_index]);
    auto plan = MuralBuilder::Scan("docs", schema)
                    .OmegaSelect("cat", UniText(probe.lemma, probe.lang))
                    .Build();
    auto result = session_->Query(plan);
    ASSERT_TRUE(result.ok()) << probe.lemma;
    ASSERT_FALSE(result->feedback.empty());
    EXPECT_LE(result->max_qerror, kQErrorBound)
        << probe.lemma << "\n" << result->explain_analyze;
  }
}

TEST_F(ObservabilityTest, NoPredicateScanEstimateIsExact) {
  LoadNames(/*bases=*/50, /*variants=*/3);
  auto plan = MuralBuilder::Scan("names", names_schema_).Build();
  auto result = session_->Query(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 150u);
  // ANALYZE records the exact row count, so a bare scan is a perfect
  // estimate: q-error exactly 1 on every estimated node.
  ASSERT_FALSE(result->feedback.empty());
  for (const NodeFeedback& fb : result->feedback) {
    EXPECT_EQ(fb.estimated_rows,
              static_cast<int64_t>(fb.actual_rows))
        << fb.op;
    EXPECT_DOUBLE_EQ(fb.qerror, 1.0) << fb.op;
  }
  EXPECT_DOUBLE_EQ(result->max_qerror, 1.0);
}

TEST_F(ObservabilityTest, MfvEqualityEstimateIsExact) {
  // Deterministic monolingual case: the predicate constant is the
  // column's most frequent value, whose frequency ANALYZE records
  // exactly, so est == actual on the filter as well as the scan.
  Schema schema({{"id", TypeId::kInt32}});
  ASSERT_TRUE(db_->CreateTable("nums", schema).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db_->Insert("nums", {Value::Int32(7)}).ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->Insert("nums", {Value::Int32(1000 + i)}).ok());
  }
  ASSERT_TRUE(db_->Analyze("nums").ok());

  auto result = session_->Sql("SELECT id FROM nums WHERE id = 7");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 60u);
  ASSERT_FALSE(result->feedback.empty());
  for (const NodeFeedback& fb : result->feedback) {
    EXPECT_EQ(fb.estimated_rows, static_cast<int64_t>(fb.actual_rows))
        << fb.op << "\n" << result->explain_analyze;
  }
  EXPECT_DOUBLE_EQ(result->max_qerror, 1.0);
}

TEST_F(ObservabilityTest, ExplainAnalyzeSqlRendersTimedTree) {
  LoadNames(/*bases=*/30, /*variants=*/3);
  auto result = session_->Sql(
      "EXPLAIN ANALYZE SELECT count(*) FROM names A, names B "
      "WHERE A.name LexEQUAL B.name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rows.empty());
  // The timed tree carries estimated vs actual rows, per-node q-error,
  // per-operator wall time, and a closing q-error summary line.
  EXPECT_NE(result->explain_analyze.find("est rows="), std::string::npos)
      << result->explain_analyze;
  EXPECT_NE(result->explain_analyze.find("actual rows="), std::string::npos);
  EXPECT_NE(result->explain_analyze.find(" q="), std::string::npos);
  EXPECT_NE(result->explain_analyze.find("time="), std::string::npos);
  EXPECT_NE(result->explain_analyze.find("q-error: max="), std::string::npos);
  // The returned rows are the same tree, one line each.
  EXPECT_NE(result->rows.front()[0].ToString().find("->"),
            std::string::npos);
}

TEST_F(ObservabilityTest, SlowQueryThresholdCountsQueries) {
  LoadNames(/*bases=*/20, /*variants=*/2);
  Counter* slow =
      MetricsRegistry::Global().GetCounter("engine.slow_queries");

  // Disabled by default: no query is slow.
  EXPECT_EQ(session_->options().slow_query_millis, -1);
  const uint64_t before = slow->value();
  ASSERT_TRUE(session_->Sql("SELECT id FROM names").ok());
  EXPECT_EQ(slow->value(), before);

  // Threshold 0: every query qualifies and increments the counter.
  ASSERT_TRUE(session_->Sql("SET SLOW_QUERY_MILLIS = 0").ok());
  EXPECT_EQ(session_->options().slow_query_millis, 0);
  ASSERT_TRUE(session_->Sql("SELECT id FROM names").ok());
  EXPECT_EQ(slow->value(), before + 1);

  // Back off via the session API; the counter stops advancing.
  ASSERT_TRUE(session_->Set("slow_query_millis", -1).ok());
  ASSERT_TRUE(session_->Sql("SELECT id FROM names").ok());
  EXPECT_EQ(slow->value(), before + 1);
}

}  // namespace
}  // namespace mural
