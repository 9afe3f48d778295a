// Experiment T4 — paper Table 4: "Performance of Psi Implementation".
//
// Reproduces the four-way comparison for both scan- and join-type
// LexEQUAL queries at threshold 3 (the paper's constant):
//
//     Implementation     Query type      Scan (s)   Join (s)
//     Core               No Index        5.20       1.97
//     Core               M-Tree Index    4.24       1.92
//     Outside-Server     No Index        3618       453
//     Outside-Server     MDI Index       498        169
//
// The shape to reproduce: core beats outside-the-server by ~2 orders of
// magnitude; the M-Tree helps the core path only marginally; the MDI
// helps the outside path substantially but leaves it far behind core.
// Absolute numbers differ (their testbed was a 2.3 GHz Pentium 4 against
// on-disk PostgreSQL; ours is an in-process engine) — the ratios are the
// result.
//
// Scale note: the paper's scan dataset is ~30k names, which we match; the
// outside-the-server *join* at paper scale (30k x 30k interpreted UDF
// pairs) would run for hours by design, so the join uses 1.2k x 400 —
// both implementations run the same workload, preserving the ratio.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/outside_server.h"
#include "mural/algebra.h"

using namespace mural;
using namespace mural::bench;

namespace {

constexpr int kThreshold = 3;

struct Cell {
  double scan_ms = 0;
  double join_ms = 0;
};

/// Operator name of `op` (its DisplayName up to the '(').
std::string OpName(const PhysicalOp& op) {
  const std::string name = op.DisplayName();
  return name.substr(0, name.find('('));
}

/// The DOP `op` was planned at: its "dop=N" annotation, else 1.
int PlannedDop(const PhysicalOp& op) {
  const std::string name = op.DisplayName();
  const size_t at = name.find("dop=");
  return at == std::string::npos ? 1 : std::atoi(name.c_str() + at + 4);
}

/// Records which Psi operator, at which DOP, the planner chose for one
/// sweep point ("psi_op.<Name>" = planned DOP), so a plan flip shows up in
/// the JSON as a changed key or value.
void RecordPsiOperator(JsonReporter* json, const std::string& label,
                       const PhysicalOp& op) {
  json->Record(label, "psi_op." + OpName(op), PlannedDop(op));
}

}  // namespace

int main() {
  JsonReporter json("table4_lexequal");
  std::printf("=== Table 4: Performance of Psi implementation "
              "(threshold=%d) ===\n", kThreshold);
  std::printf("(seed 42; scans summed over 3 probes of 30k names; join 1.2k x 400 names)\n\n");

  // ---- scan dataset: ~30k names like the paper's -----------------------
  std::vector<NameRecord> records;
  auto db_or = MakeNamesDb(/*bases=*/6000, /*variants=*/5, /*seed=*/42,
                           &records);
  BENCH_CHECK_OK(db_or.status());
  std::unique_ptr<Database> db = std::move(*db_or);
  std::unique_ptr<Session> session = MustConnect(db.get());
  BENCH_CHECK_OK(session->Set("lexequal_threshold", kThreshold));
  BENCH_CHECK_OK(db->CreateIndex("names_mtree", "names", "name",
                                 IndexKind::kMTree, true));
  BENCH_CHECK_OK(db->CreateIndex("names_mdi", "names", "name",
                                 IndexKind::kMdi, true));

  // ---- join dataset ----------------------------------------------------
  BENCH_CHECK_OK(MakeNamesDb(0, 1, 0).status());  // warm the transformer
  auto join_db_or = MakeNamesDb(/*bases=*/300, /*variants=*/4, /*seed=*/7);
  BENCH_CHECK_OK(join_db_or.status());
  std::unique_ptr<Database> join_db = std::move(*join_db_or);
  std::unique_ptr<Session> join_session = MustConnect(join_db.get());
  BENCH_CHECK_OK(join_session->Set("lexequal_threshold", kThreshold));
  BENCH_CHECK_OK(AddSecondNamesTable(join_db.get(), "others",
                                     /*bases=*/100, /*variants=*/4,
                                     /*seed=*/11));
  BENCH_CHECK_OK(join_db->CreateIndex("names_mtree", "names", "name",
                                      IndexKind::kMTree, true));
  BENCH_CHECK_OK(join_db->CreateIndex("names_mdi", "names", "name",
                                      IndexKind::kMdi, true));

  // Several probes spread across the dataset; scan times below are sums
  // over the probe set so no single query's luck dominates.
  const std::vector<UniText> probes = {records[17].name,
                                       records[10017].name,
                                       records[20017].name};
  const Schema& names_schema = (*db->catalog()->GetTable("names"))->schema;
  const Schema& jnames_schema =
      (*join_db->catalog()->GetTable("names"))->schema;
  const Schema& others_schema =
      (*join_db->catalog()->GetTable("others"))->schema;

  size_t scan_rows = 0, join_rows = 0;
  Cell core_noidx, core_mtree, out_noidx, out_idx;

  // ---------------- Core, no index --------------------------------------
  {
    PlannerHints hints;
    hints.enable_mtree = false;
    core_noidx.scan_ms = TimeMedianMs(3, [&] {
      scan_rows = 0;
      for (const UniText& probe : probes) {
        auto plan = MuralBuilder::Scan("names", names_schema)
                        .PsiSelect("name", probe)
                        .Build();
        auto result = session->Query(plan, hints);
        BENCH_CHECK_OK(result.status());
        scan_rows += result->rows.size();
      }
    });
    auto join_plan =
        MuralBuilder::Scan("names", jnames_schema)
            .PsiJoin(MuralBuilder::Scan("others", others_schema), "name",
                     "name")
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    core_noidx.join_ms = TimeMedianMs(3, [&] {
      auto result = join_session->Query(join_plan, hints);
      BENCH_CHECK_OK(result.status());
      join_rows = static_cast<size_t>(result->rows[0][0].int64());
    });
  }

  // ---------------- Core, M-Tree index -----------------------------------
  {
    size_t rows = 0;
    core_mtree.scan_ms = TimeMedianMs(3, [&] {
      rows = 0;
      for (const UniText& probe : probes) {
        auto plan = MuralBuilder::Scan("names", names_schema)
                        .PsiSelect("name", probe)
                        .Build();
        auto result = session->Query(plan);
        BENCH_CHECK_OK(result.status());
        rows += result->rows.size();
      }
    });
    if (rows != scan_rows) {
      std::fprintf(stderr, "FATAL: index scan row mismatch %zu vs %zu\n",
                   rows, scan_rows);
      return 1;
    }
    auto join_plan =
        MuralBuilder::Scan("others", others_schema)
            .PsiJoin(MuralBuilder::Scan("names", jnames_schema), "name",
                     "name")
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    core_mtree.join_ms = TimeMedianMs(3, [&] {
      auto result = join_session->Query(join_plan);
      BENCH_CHECK_OK(result.status());
    });
  }

  // ---------------- Outside-the-server, no index -------------------------
  {
    size_t rows = 0;
    out_noidx.scan_ms = 0;
    for (const UniText& probe : probes) {
      auto scan =
          OutsideLexScan(db.get(), "names", "name", probe, kThreshold);
      BENCH_CHECK_OK(scan.status());
      out_noidx.scan_ms += scan->second.millis;
      rows += scan->first.size();
    }
    if (rows != scan_rows) {
      std::fprintf(stderr, "FATAL: outside scan row mismatch\n");
      return 1;
    }
    auto join = OutsideLexJoin(join_db.get(), "names", "name", "others",
                               "name", kThreshold);
    BENCH_CHECK_OK(join.status());
    out_noidx.join_ms = join->second.millis;
    if (join->first.size() != join_rows) {
      std::fprintf(stderr, "FATAL: outside join row mismatch %zu vs %zu\n",
                   join->first.size(), join_rows);
      return 1;
    }
  }

  // ---------------- Outside-the-server, MDI index ------------------------
  {
    size_t rows = 0;
    out_idx.scan_ms = 0;
    for (const UniText& probe : probes) {
      auto scan =
          OutsideLexScan(db.get(), "names", "name", probe, kThreshold,
                         /*use_mdi_index=*/true, "names_mdi");
      BENCH_CHECK_OK(scan.status());
      out_idx.scan_ms += scan->second.millis;
      rows += scan->first.size();
    }
    if (rows != scan_rows) {
      std::fprintf(stderr, "FATAL: MDI scan row mismatch\n");
      return 1;
    }
    auto join = OutsideLexJoin(join_db.get(), "others", "name", "names",
                               "name", kThreshold,
                               /*use_mdi_index=*/true, "names_mdi");
    BENCH_CHECK_OK(join.status());
    out_idx.join_ms = join->second.millis;
  }

  const std::pair<const char*, const Cell*> cells[] = {
      {"core_noidx", &core_noidx},
      {"core_mtree", &core_mtree},
      {"outside_noidx", &out_noidx},
      {"outside_mdi", &out_idx}};
  for (const auto& [label, cell] : cells) {
    json.Record(label, "scan_ms", cell->scan_ms);
    json.Record(label, "join_ms", cell->join_ms);
  }

  std::printf("%-18s %-14s %12s %12s\n", "Implementation", "Query Type",
              "Scan (ms)", "Join (ms)");
  std::printf("%-18s %-14s %12.2f %12.2f\n", "Core", "No Index",
              core_noidx.scan_ms, core_noidx.join_ms);
  std::printf("%-18s %-14s %12.2f %12.2f\n", "Core", "M-Tree Index",
              core_mtree.scan_ms, core_mtree.join_ms);
  std::printf("%-18s %-14s %12.2f %12.2f\n", "Outside-Server", "No Index",
              out_noidx.scan_ms, out_noidx.join_ms);
  std::printf("%-18s %-14s %12.2f %12.2f\n", "Outside-Server", "MDI Index",
              out_idx.scan_ms, out_idx.join_ms);

  std::printf("\nScan result rows: %zu; join result pairs: %zu "
              "(identical across all four configurations)\n",
              scan_rows, join_rows);
  std::printf("\nShape checks (paper's findings):\n");
  std::printf("  outside/core scan speedup (no index):   %8.1fx  "
              "(paper: ~700x)\n",
              out_noidx.scan_ms / core_noidx.scan_ms);
  std::printf("  outside/core scan speedup (indexed):    %8.1fx  "
              "(paper: ~117x)\n",
              out_idx.scan_ms / core_mtree.scan_ms);
  std::printf("  outside/core join speedup (no index):   %8.1fx  "
              "(paper: ~230x)\n",
              out_noidx.join_ms / core_noidx.join_ms);
  std::printf("  M-Tree gain on core scan:               %8.2fx  "
              "(paper: 1.23x, 'marginal')\n",
              core_noidx.scan_ms / core_mtree.scan_ms);
  std::printf("  MDI gain on outside scan:               %8.2fx  "
              "(paper: 7.3x)\n",
              out_noidx.scan_ms / out_idx.scan_ms);

  // ---------------- Core, batch-size ablation ----------------------------
  // The one Psi scan leaf (LexSelect: morsel scan, zero-copy key peek,
  // bounded bit-parallel kernel, late materialization) replaying its
  // matches one row per batch against 1024 per batch, on the same 30k-name
  // scan workload, pinned serial so the comparison isolates the batch
  // size.  Match sets must be bit-identical.
  {
    std::printf("\n=== Batch ablation: core no-index scan, 30k names ===\n");
    PlannerHints hints;
    hints.enable_mtree = false;
    hints.degree_of_parallelism = 1;
    double batch1_ms = 0, batch1024_ms = 0;
    size_t batch1_rows = 0, batch1024_rows = 0;
    std::vector<std::string> batch1_set, batch1024_set;
    for (const size_t batch : {size_t{1}, size_t{1024}}) {
      BENCH_CHECK_OK(
          session->Set("batch_size", static_cast<int64_t>(batch)));
      size_t rows = 0;
      std::vector<std::string> rendered;
      const double ms = TimeMedianMs(3, [&] {
        rows = 0;
        rendered.clear();
        for (const UniText& probe : probes) {
          auto plan = MuralBuilder::Scan("names", names_schema)
                          .PsiSelect("name", probe)
                          .Build();
          auto result = session->Query(plan, hints);
          BENCH_CHECK_OK(result.status());
          rows += result->rows.size();
          for (const Row& r : result->rows) {
            rendered.push_back(r[0].ToString() + "|" + r[1].ToString());
          }
        }
      });
      if (batch == 1) {
        batch1_ms = ms;
        batch1_rows = rows;
        batch1_set = std::move(rendered);
      } else {
        batch1024_ms = ms;
        batch1024_rows = rows;
        batch1024_set = std::move(rendered);
      }
    }
    BENCH_CHECK_OK(session->Set("batch_size", 1024));  // restore default
    if (batch1_rows != scan_rows || batch1024_rows != scan_rows ||
        batch1_set != batch1024_set) {
      std::fprintf(stderr,
                   "FATAL: batch 1/1024 match sets differ (%zu vs %zu)\n",
                   batch1_rows, batch1024_rows);
      return 1;
    }
    json.Record("core_noidx_batch1", "scan_ms", batch1_ms);
    json.Record("core_noidx_batch1024", "scan_ms", batch1024_ms);
    std::printf("  batch=1:                      %10.2f ms\n", batch1_ms);
    std::printf("  batch=1024:                   %10.2f ms\n", batch1024_ms);
    std::printf("  batch-1024 speedup:           %10.2fx  "
                "(match sets bit-identical, %zu rows)\n",
                batch1_ms / batch1024_ms, batch1024_rows);
  }

  // ---------------- Core, morsel-parallel DOP sweep ----------------------
  // Beyond the paper: the same no-index core scan on a 100k-name dataset,
  // swept over degree_of_parallelism.  Row counts must be identical at
  // every DOP (the differential harness proves bit-equality; this is the
  // at-scale spot check), and the speedup column reports what this
  // machine actually delivers (1 worker per DOP unit; on a single-core
  // container expect ~1.0x plus coordination overhead).
  {
    std::printf("\n=== DOP sweep: core no-index scan, 100k names ===\n");
    std::printf("(%u hardware thread(s) on this machine)\n",
                static_cast<unsigned>(ThreadPool::HardwareConcurrency()));
    std::vector<NameRecord> big_records;
    auto big_or = MakeNamesDb(/*bases=*/20000, /*variants=*/5, /*seed=*/42,
                              &big_records);
    BENCH_CHECK_OK(big_or.status());
    std::unique_ptr<Database> big = std::move(*big_or);
    std::unique_ptr<Session> big_session = MustConnect(big.get());
    BENCH_CHECK_OK(big_session->Set("lexequal_threshold", kThreshold));
    // Provision the pool once.
    BENCH_CHECK_OK(big_session->Set("degree_of_parallelism", 8));
    const Schema& big_schema = (*big->catalog()->GetTable("names"))->schema;
    auto plan = MuralBuilder::Scan("names", big_schema)
                    .PsiSelect("name", big_records[17].name)
                    .Build();
    // Storage-layer attribution: BufferPool::Fetch/FetchForWrite
    // accumulate their wall time into this counter, so the delta across
    // the three timed runs, divided by 3, is the per-run time the scan
    // spent pinning/latching/loading pages.  On a single-core container
    // it should stay flat across DOPs — any growth is latch contention.
    Counter* fetch_nanos = MetricsRegistry::Global().GetCounter(
        "storage.buffer_pool.fetch_nanos");
    std::printf("%6s %14s %14s %10s %12s\n", "dop", "runtime (ms)",
                "storage (ms)", "rows", "speedup");
    double serial_ms = 0;
    size_t serial_rows = 0;
    for (int dop : {1, 2, 4, 8}) {
      PlannerHints hints;
      hints.enable_mtree = false;
      hints.degree_of_parallelism = dop;
      size_t rows = 0;
      const uint64_t fetch_before = fetch_nanos->value();
      const double ms = TimeMedianMs(3, [&] {
        auto result = big_session->Query(plan, hints);
        BENCH_CHECK_OK(result.status());
        rows = result->rows.size();
      });
      const double storage_ms =
          static_cast<double>(fetch_nanos->value() - fetch_before) / 3 * 1e-6;
      if (dop == 1) {
        serial_ms = ms;
        serial_rows = rows;
      } else if (rows != serial_rows) {
        std::fprintf(stderr, "FATAL: DOP=%d rows %zu != serial %zu\n", dop,
                     rows, serial_rows);
        return 1;
      }
      auto physical = big_session->PlanQuery(plan, hints);
      BENCH_CHECK_OK(physical.status());
      std::printf("%6d %14.2f %14.2f %10zu %12.2fx  %s\n", dop, ms,
                  storage_ms, rows, serial_ms / ms,
                  physical->root->DisplayName().c_str());
      const std::string label = "dop_scan_" + std::to_string(dop);
      json.Record(label, "runtime_ms", ms);
      json.Record(label, "storage_ms", storage_ms);
      RecordPsiOperator(&json, label, *physical->root);
    }

    // Same sweep for the core join workload.
    std::printf("\n-- DOP sweep: core no-index join (1.2k x 400) --\n");
    BENCH_CHECK_OK(join_session->Set("degree_of_parallelism", 8));
    auto join_plan =
        MuralBuilder::Scan("names", jnames_schema)
            .PsiJoin(MuralBuilder::Scan("others", others_schema), "name",
                     "name")
            .Aggregate({}, {{AggKind::kCountStar, 0, "n"}})
            .Build();
    std::printf("%6s %14s %14s %10s %12s\n", "dop", "runtime (ms)",
                "storage (ms)", "pairs", "speedup");
    double join_serial_ms = 0;
    for (int dop : {1, 2, 4, 8}) {
      PlannerHints hints;
      hints.enable_mtree = false;
      hints.degree_of_parallelism = dop;
      size_t pairs = 0;
      const uint64_t fetch_before = fetch_nanos->value();
      const double ms = TimeMedianMs(3, [&] {
        auto result = join_session->Query(join_plan, hints);
        BENCH_CHECK_OK(result.status());
        pairs = static_cast<size_t>(result->rows[0][0].int64());
      });
      const double storage_ms =
          static_cast<double>(fetch_nanos->value() - fetch_before) / 3 * 1e-6;
      if (dop == 1) {
        join_serial_ms = ms;
      } else if (pairs != join_rows) {
        std::fprintf(stderr, "FATAL: DOP=%d pairs %zu != serial %zu\n", dop,
                     pairs, join_rows);
        return 1;
      }
      // The plan root is the COUNT(*) aggregate; the join is its input.
      auto physical = join_session->PlanQuery(join_plan, hints);
      BENCH_CHECK_OK(physical.status());
      const PhysicalOp& join_op = *physical->root->Children().front();
      std::printf("%6d %14.2f %14.2f %10zu %12.2fx  %s\n", dop, ms,
                  storage_ms, pairs, join_serial_ms / ms,
                  join_op.DisplayName().c_str());
      const std::string label = "dop_join_" + std::to_string(dop);
      json.Record(label, "runtime_ms", ms);
      json.Record(label, "storage_ms", storage_ms);
      RecordPsiOperator(&json, label, join_op);
    }
  }
  return 0;
}
