// Experiment T3 — empirical validation of the Table-3 cost-model shapes:
// measured runtimes of the Psi operators must scale the way the big-O
// rows say (linear in n for scans, bilinear for joins, linear in the
// threshold k through the diagonal-transition band).

#include <cstdio>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "mural/algebra.h"

using namespace mural;
using namespace mural::bench;

int main() {
  JsonReporter json("cost_scaling");
  std::printf("=== Table 3 validation: measured scaling of the Psi "
              "operators ===\n\n");

  // ---- scan: runtime vs n at fixed k ------------------------------------
  std::printf("-- Psi scan: runtime vs record count (k=2) --\n");
  std::printf("%10s %14s %16s\n", "n", "runtime (ms)", "ms per 1k rows");
  double prev_ms = 0;
  (void)prev_ms;
  for (size_t bases : {1000, 2000, 4000, 8000}) {
    std::vector<NameRecord> records;
    auto db_or = MakeNamesDb(bases, 3, 42, &records);
    BENCH_CHECK_OK(db_or.status());
    std::unique_ptr<Database> db = std::move(*db_or);
    std::unique_ptr<Session> session = MustConnect(db.get());
    BENCH_CHECK_OK(session->Set("lexequal_threshold", 2));
    auto plan =
        MuralBuilder::Scan("names",
                           (*db->catalog()->GetTable("names"))->schema)
            .PsiSelect("name", records[0].name)
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    const double ms = TimeMedianMs(5, [&] {
      BENCH_CHECK_OK(session->Query(plan).status());
    });
    std::printf("%10zu %14.2f %16.3f\n", bases * 3, ms,
                ms / (bases * 3 / 1000.0));
    json.Record("scan_n_" + std::to_string(bases * 3), "runtime_ms", ms);
  }
  std::printf("(ms-per-1k-rows roughly flat => linear in n, "
              "matching O(n*k*L))\n\n");

  // ---- scan: runtime vs k at fixed n ------------------------------------
  std::printf("-- Psi scan: runtime vs threshold (n=12000) --\n");
  std::printf("%6s %14s\n", "k", "runtime (ms)");
  {
    std::vector<NameRecord> records;
    auto db_or = MakeNamesDb(4000, 3, 42, &records);
    BENCH_CHECK_OK(db_or.status());
    std::unique_ptr<Database> db = std::move(*db_or);
    std::unique_ptr<Session> session = MustConnect(db.get());
    for (int k : {0, 1, 2, 4, 8}) {
      BENCH_CHECK_OK(session->Set("lexequal_threshold", k));
      auto plan =
          MuralBuilder::Scan("names",
                             (*db->catalog()->GetTable("names"))->schema)
              .PsiSelect("name", records[0].name)
              .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
              .Build();
      const double ms = TimeMedianMs(5, [&] {
        BENCH_CHECK_OK(session->Query(plan).status());
      });
      std::printf("%6d %14.2f\n", k, ms);
      json.Record("scan_k_" + std::to_string(k), "runtime_ms", ms);
    }
  }
  std::printf("(growth bounded by the (2k+1)-diagonal band, then "
              "saturates at full DP)\n\n");

  // ---- join: runtime vs n_l x n_r ---------------------------------------
  std::printf("-- Psi join: runtime vs pair count (k=2) --\n");
  std::printf("%10s %10s %14s %18s\n", "n_left", "n_right", "runtime (ms)",
              "us per 1k pairs");
  for (const auto& [lb, rb] : {std::make_pair(250, 125),
                               std::make_pair(500, 250),
                               std::make_pair(1000, 500)}) {
    auto db_or = MakeNamesDb(static_cast<size_t>(lb), 2, 42);
    BENCH_CHECK_OK(db_or.status());
    std::unique_ptr<Database> db = std::move(*db_or);
    BENCH_CHECK_OK(AddSecondNamesTable(db.get(), "others",
                                       static_cast<size_t>(rb), 2, 7));
    std::unique_ptr<Session> session = MustConnect(db.get());
    BENCH_CHECK_OK(session->Set("lexequal_threshold", 2));
    auto plan =
        MuralBuilder::Scan("names",
                           (*db->catalog()->GetTable("names"))->schema)
            .PsiJoin(MuralBuilder::Scan(
                         "others",
                         (*db->catalog()->GetTable("others"))->schema),
                     "name", "name")
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    PlannerHints hints;
    hints.enable_mtree = false;
    const double ms = TimeMedianMs(3, [&] {
      BENCH_CHECK_OK(session->Query(plan, hints).status());
    });
    const double pairs = static_cast<double>(lb) * 2 * rb * 2;
    std::printf("%10d %10d %14.2f %18.3f\n", lb * 2, rb * 2, ms,
                ms * 1000.0 / (pairs / 1000.0));
    json.Record("join_" + std::to_string(lb * 2) + "x" +
                    std::to_string(rb * 2),
                "runtime_ms", ms);
  }
  std::printf("(us-per-1k-pairs roughly flat => bilinear in n_l * n_r, "
              "matching O(n_l*n_r*k*L))\n\n");

  // ---- parallel scaling: runtime vs degree_of_parallelism ---------------
  // The Parallelize(cost, dop) model says cpu/dop + fixed coordination;
  // this sweep shows what morsel parallelism actually buys on this
  // machine (with 1 hardware thread, expect flat-to-slightly-worse — the
  // point of printing it is honesty, plan choice is tested elsewhere).
  std::printf("-- Psi scan + join: runtime vs DOP (k=2) --\n");
  std::printf("(%u hardware thread(s) on this machine)\n",
              static_cast<unsigned>(ThreadPool::HardwareConcurrency()));
  {
    std::vector<NameRecord> records;
    auto db_or = MakeNamesDb(8000, 3, 42, &records);
    BENCH_CHECK_OK(db_or.status());
    std::unique_ptr<Database> db = std::move(*db_or);
    std::unique_ptr<Session> session = MustConnect(db.get());
    BENCH_CHECK_OK(session->Set("lexequal_threshold", 2));
    BENCH_CHECK_OK(session->Set("degree_of_parallelism", 8));
    BENCH_CHECK_OK(AddSecondNamesTable(db.get(), "others", 400, 2, 7));
    auto scan_plan =
        MuralBuilder::Scan("names",
                           (*db->catalog()->GetTable("names"))->schema)
            .PsiSelect("name", records[0].name)
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    auto join_plan =
        MuralBuilder::Scan("names",
                           (*db->catalog()->GetTable("names"))->schema)
            .PsiJoin(MuralBuilder::Scan(
                         "others",
                         (*db->catalog()->GetTable("others"))->schema),
                     "name", "name")
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    std::printf("%6s %16s %16s\n", "dop", "scan (ms)", "join (ms)");
    for (int dop : {1, 2, 4, 8}) {
      PlannerHints hints;
      hints.enable_mtree = false;
      hints.degree_of_parallelism = dop;
      const double scan_ms = TimeMedianMs(3, [&] {
        BENCH_CHECK_OK(session->Query(scan_plan, hints).status());
      });
      const double join_ms = TimeMedianMs(3, [&] {
        BENCH_CHECK_OK(session->Query(join_plan, hints).status());
      });
      std::printf("%6d %16.2f %16.2f\n", dop, scan_ms, join_ms);
      json.Record("dop_" + std::to_string(dop), "scan_ms", scan_ms);
      json.Record("dop_" + std::to_string(dop), "join_ms", join_ms);
    }
  }
  return 0;
}
