// Experiment F6 — paper Figure 6: "Optimizer Predicted Cost vs Actual
// Runtime".
//
// Methodology (paper §5.2): a range of multilingual join queries, their
// outputs collapsed with count(*), over tables of varying record counts,
// attribute widths and selectivities (threshold settings), with duplicate
// records introduced between runs and statistics rebuilt.  For each query
// we record the optimizer's predicted cost and the measured runtime; the
// paper reports a log-log scatter with correlation "well over 0.9".

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "mural/algebra.h"

using namespace mural;
using namespace mural::bench;

namespace {

/// Pearson correlation of log(x) vs log(y).
double LogCorrelation(const std::vector<std::pair<double, double>>& points) {
  const size_t n = points.size();
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (const auto& [x, y] : points) {
    const double lx = std::log10(std::max(1e-9, x));
    const double ly = std::log10(std::max(1e-9, y));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    syy += ly * ly;
    sxy += lx * ly;
  }
  const double num = n * sxy - sx * sy;
  const double den =
      std::sqrt(n * sxx - sx * sx) * std::sqrt(n * syy - sy * sy);
  return den == 0 ? 0 : num / den;
}

}  // namespace

int main() {
  JsonReporter json("fig6_cost_prediction");
  std::printf(
      "=== Figure 6: optimizer predicted cost vs actual runtime ===\n");
  std::printf("(Psi joins collapsed with count(*); log-log scatter)\n\n");

  struct Config {
    size_t left_bases, left_variants;
    size_t right_bases, right_variants;
    int duplicate_factor;  // extra copies of the right table's rows
    int threshold;
  };
  // Varying record counts, duplicate skew, and thresholds (selectivity).
  const Config configs[] = {
      {100, 3, 50, 2, 1, 1},   {200, 3, 50, 2, 1, 2},
      {400, 3, 100, 2, 1, 1},  {400, 3, 100, 2, 1, 3},
      {800, 3, 100, 2, 2, 2},  {800, 3, 200, 2, 1, 2},
      {1500, 3, 200, 2, 1, 1}, {1500, 3, 200, 2, 2, 3},
      {2500, 3, 300, 2, 1, 2}, {2500, 3, 150, 4, 1, 1},
      {3500, 3, 300, 2, 2, 2}, {1000, 5, 400, 2, 1, 2},
  };

  std::vector<std::pair<double, double>> points;
  std::printf("%8s %8s %4s %16s %14s\n", "n_left", "n_right", "k",
              "predicted cost", "runtime (ms)");
  uint64_t seed = 1000;
  for (const Config& config : configs) {
    auto db_or = MakeNamesDb(config.left_bases, config.left_variants,
                             seed++);
    BENCH_CHECK_OK(db_or.status());
    std::unique_ptr<Database> db = std::move(*db_or);
    std::unique_ptr<Session> session = MustConnect(db.get());
    BENCH_CHECK_OK(AddSecondNamesTable(db.get(), "others",
                                       config.right_bases,
                                       config.right_variants, seed++));
    // Introduce duplicates, then rebuild the histograms (paper: "duplicate
    // records were introduced in the tables and the histograms rebuilt").
    if (config.duplicate_factor > 1) {
      auto table = db->catalog()->GetTable("others");
      BENCH_CHECK_OK(table.status());
      auto rows_or = session->Sql("SELECT * FROM others");
      BENCH_CHECK_OK(rows_or.status());
      for (int dup = 1; dup < config.duplicate_factor; ++dup) {
        for (const Row& row : rows_or->rows) {
          BENCH_CHECK_OK(db->Insert("others", row));
        }
      }
      BENCH_CHECK_OK(db->Analyze("others"));
    }
    BENCH_CHECK_OK(session->Set("lexequal_threshold", config.threshold));

    const Schema& left_schema = (*db->catalog()->GetTable("names"))->schema;
    const Schema& right_schema =
        (*db->catalog()->GetTable("others"))->schema;
    auto plan = MuralBuilder::Scan("names", left_schema)
                    .PsiJoin(MuralBuilder::Scan("others", right_schema),
                             "name", "name")
                    .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
                    .Build();
    auto result = session->Query(plan);
    BENCH_CHECK_OK(result.status());
    // One warmed re-run for a stable runtime.
    auto timed = session->Query(plan);
    BENCH_CHECK_OK(timed.status());
    const double predicted = timed->predicted_cost.total();
    const double runtime = timed->runtime_ms;
    points.emplace_back(predicted, runtime);
    const std::string label =
        "q" + std::to_string(points.size());
    json.Record(label, "predicted_cost", predicted);
    json.Record(label, "runtime_ms", runtime);
    std::printf("%8zu %8zu %4d %16.0f %14.2f\n",
                config.left_bases * config.left_variants,
                config.right_bases * config.right_variants *
                    static_cast<size_t>(config.duplicate_factor),
                config.threshold, predicted, runtime);
  }

  const double r = LogCorrelation(points);
  json.Record("summary", "log_log_correlation", r);
  std::printf("\nlog-log correlation coefficient: %.3f "
              "(paper: 'well over 0.9')\n", r);
  std::printf("%s\n", r > 0.9 ? "SHAPE OK: strong cost/runtime correlation"
                              : "SHAPE DEVIATION: correlation below 0.9");
  return 0;
}
