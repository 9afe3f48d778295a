// Experiment R1 — paper §5.1's regression claim: "the existing
// performance of the system is not affected adversely by the new
// modifications ... we found no statistically significant degradation".
//
// Method: a standard monolingual query suite (point lookups, range scans,
// equi-joins, aggregation, sorting) runs twice over identical data —
// once in a database with NO multilingual features in play, and once in a
// database carrying the full multilingual apparatus (UniText columns with
// materialized phonemes alongside, metric + MDI indexes registered, a
// pinned taxonomy loaded).  The suite itself never touches a multilingual
// operator, so any slowdown would be pure overhead from the additions.

#include <cstdio>

#include "bench_util.h"

using namespace mural;
using namespace mural::bench;

namespace {

Status LoadCommon(Database* db, Session* session, bool with_multilingual) {
  // The monolingual core: items(id, grp, price, label).
  MURAL_RETURN_IF_ERROR(session->Sql("CREATE TABLE items (id INT, grp INT, "
                                     "price DOUBLE, label TEXT)")
                            .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE groups (grp INT, gname TEXT)").status());
  Rng rng(42);
  for (int g = 0; g < 50; ++g) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("groups", {Value::Int32(g),
                              Value::Text("group" + std::to_string(g))}));
  }
  for (int i = 0; i < 20000; ++i) {
    MURAL_RETURN_IF_ERROR(db->Insert(
        "items",
        {Value::Int32(i), Value::Int32(static_cast<int32_t>(rng.Uniform(50))),
         Value::Float64(rng.NextDouble() * 100),
         Value::Text("item" + std::to_string(rng.Uniform(5000)))}));
  }
  MURAL_RETURN_IF_ERROR(db->CreateIndex("items_id", "items", "id",
                                        IndexKind::kBTree, false));
  MURAL_RETURN_IF_ERROR(db->Analyze("items"));
  MURAL_RETURN_IF_ERROR(db->Analyze("groups"));

  if (with_multilingual) {
    // The multilingual additions, present but unused by the suite.
    Schema names({{"id", TypeId::kInt32},
                  {"name", TypeId::kUniText, /*mat=*/true}});
    MURAL_RETURN_IF_ERROR(db->CreateTable("names", names));
    NameGenOptions options;
    options.num_bases = 1000;
    options.variants_per_base = 3;
    for (const NameRecord& rec : GenerateNames(options)) {
      MURAL_RETURN_IF_ERROR(
          db->Insert("names", {Value::Int32(static_cast<int32_t>(rec.id)),
                               Value::Uni(rec.name)}));
    }
    MURAL_RETURN_IF_ERROR(db->CreateIndex("names_mtree", "names", "name",
                                          IndexKind::kMTree, true));
    MURAL_RETURN_IF_ERROR(db->CreateIndex("names_mdi", "names", "name",
                                          IndexKind::kMdi, true));
    MURAL_RETURN_IF_ERROR(db->Analyze("names"));
    TaxonomyGenOptions tax_options;
    tax_options.base_synsets = 2000;
    GeneratedTaxonomy tax = GenerateTaxonomy(tax_options);
    MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(tax.taxonomy)));
  }
  return Status::OK();
}

double RunSuite(Session* session) {
  const char* suite[] = {
      "SELECT count(*) FROM items WHERE id = 777",
      "SELECT count(*) FROM items WHERE price >= 25.0 AND price <= 75.0",
      "SELECT grp, count(*), avg(price) FROM items GROUP BY grp",
      "SELECT count(*) FROM items I, groups G WHERE I.grp = G.grp",
      "SELECT id FROM items WHERE grp = 7 ORDER BY price DESC LIMIT 10",
      "SELECT max(price) FROM items WHERE label = 'item42'",
  };
  return TimeMedianMs(5, [&] {
    for (const char* q : suite) {
      auto result = session->Sql(q);
      BENCH_CHECK_OK(result.status());
    }
  });
}

}  // namespace

int main() {
  JsonReporter json("regression_monolingual");
  std::printf("=== §5.1 regression check: monolingual suite with vs "
              "without the multilingual additions ===\n\n");

  auto plain_or = Database::Open();
  BENCH_CHECK_OK(plain_or.status());
  std::unique_ptr<Database> plain = std::move(*plain_or);
  std::unique_ptr<Session> plain_session = MustConnect(plain.get());
  BENCH_CHECK_OK(LoadCommon(plain.get(), plain_session.get(),
                            /*with_multilingual=*/false));

  auto loaded_or = Database::Open();
  BENCH_CHECK_OK(loaded_or.status());
  std::unique_ptr<Database> loaded = std::move(*loaded_or);
  std::unique_ptr<Session> loaded_session = MustConnect(loaded.get());
  BENCH_CHECK_OK(LoadCommon(loaded.get(), loaded_session.get(),
                            /*with_multilingual=*/true));

  // Interleave A/B runs to cancel drift.
  double plain_total = 0, loaded_total = 0;
  const int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    plain_total += RunSuite(plain_session.get());
    loaded_total += RunSuite(loaded_session.get());
  }
  const double plain_ms = plain_total / kRounds;
  const double loaded_ms = loaded_total / kRounds;

  std::printf("%-42s %12.2f ms/suite\n",
              "baseline engine (no multilingual features)", plain_ms);
  std::printf("%-42s %12.2f ms/suite\n",
              "engine with full multilingual apparatus", loaded_ms);
  const double overhead = (loaded_ms - plain_ms) / plain_ms * 100.0;
  json.Record("baseline", "suite_ms", plain_ms);
  json.Record("multilingual", "suite_ms", loaded_ms);
  json.Record("summary", "overhead_pct", overhead);
  std::printf("\noverhead: %+.1f%% (paper: 'no statistically significant "
              "degradation')\n", overhead);
  std::printf("%s\n", std::abs(overhead) < 10.0
                          ? "SHAPE OK: within noise"
                          : "SHAPE DEVIATION: overhead exceeds 10%");
  return 0;
}
