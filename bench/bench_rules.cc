// Experiment T1 — paper Table 1: the operator composition rules, shown as
// executable rewrites.  For each legal rewrite, the original and the
// rewritten plan are both costed by the optimizer and executed; the bench
// prints the rendered Table 1, the equivalence verdicts, and the cost of
// each alternative (demonstrating why the optimizer wants these rules:
// alternatives genuinely differ in predicted cost).

#include <cstdio>

#include "bench_util.h"
#include "mural/algebra.h"

using namespace mural;
using namespace mural::bench;

namespace {

std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      line += v.ToString();
      line += '|';
    }
    out.insert(std::move(line));
  }
  return out;
}

}  // namespace

int main() {
  JsonReporter json("rules");
  std::printf("=== Table 1: operator composition rules ===\n\n%s\n",
              algebra::CompositionTable().c_str());

  auto db_or = MakeNamesDb(300, 3, 42);
  BENCH_CHECK_OK(db_or.status());
  std::unique_ptr<Database> db = std::move(*db_or);
  BENCH_CHECK_OK(AddSecondNamesTable(db.get(), "others", 150, 3, 7));
  std::unique_ptr<Session> session = MustConnect(db.get());
  BENCH_CHECK_OK(session->Set("lexequal_threshold", 2));
  const Schema names_schema = (*db->catalog()->GetTable("names"))->schema;
  const Schema others_schema = (*db->catalog()->GetTable("others"))->schema;

  // ---- Psi commutativity -------------------------------------------------
  auto psi = MuralBuilder::Scan("names", names_schema)
                 .PsiJoin(MuralBuilder::Scan("others", others_schema),
                          "name", "name")
                 .Build();
  auto psi_commuted = algebra::Commute(psi, names_schema, others_schema);
  BENCH_CHECK_OK(psi_commuted.status());
  auto original = session->Query(psi);
  auto commuted = session->Query(*psi_commuted);
  BENCH_CHECK_OK(original.status());
  BENCH_CHECK_OK(commuted.status());
  std::printf("Psi commute:   results %s  | cost %0.f vs %0.f\n",
              Canon(original->rows) == Canon(commuted->rows) ? "EQUAL"
                                                             : "DIFFER",
              original->predicted_cost.total(),
              commuted->predicted_cost.total());
  json.Record("psi_commute", "cost_original",
              original->predicted_cost.total());
  json.Record("psi_commute", "cost_rewritten",
              commuted->predicted_cost.total());

  // ---- Omega commutativity is refused ------------------------------------
  TaxonomyGenOptions tax_options;
  tax_options.base_synsets = 500;
  GeneratedTaxonomy tax = GenerateTaxonomy(tax_options);
  std::vector<SynsetId> bases = tax.base_synsets;
  BENCH_CHECK_OK(db->LoadTaxonomy(std::move(tax.taxonomy)));
  Schema cat_schema({{"cat", TypeId::kUniText}});
  BENCH_CHECK_OK(db->CreateTable("cats", cat_schema));
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const Synset& s =
        db->taxonomy()->Get(bases[rng.Uniform(bases.size())]);
    BENCH_CHECK_OK(db->Insert("cats", {Value::Uni(s.lemma, s.lang)}));
  }
  BENCH_CHECK_OK(db->Analyze("cats"));
  auto omega = MuralBuilder::Scan("cats", cat_schema)
                   .OmegaJoin(MuralBuilder::Scan("cats", cat_schema), "cat",
                              "cat")
                   .Build();
  auto refused = algebra::Commute(omega, cat_schema, cat_schema);
  std::printf("Omega commute: %s (Table 1: Omega does not commute)\n",
              refused.status().IsNotSupported() ? "REFUSED" : "ACCEPTED?!");

  // ---- distribution over union -------------------------------------------
  auto unioned = MuralBuilder::Scan("names", names_schema)
                     .UnionAll(MuralBuilder::Scan("names", names_schema))
                     .PsiJoin(MuralBuilder::Scan("others", others_schema),
                              "name", "name")
                     .Build();
  auto distributed = algebra::DistributeOverUnion(unioned);
  BENCH_CHECK_OK(distributed.status());
  auto u1 = session->Query(unioned);
  auto u2 = session->Query(*distributed);
  BENCH_CHECK_OK(u1.status());
  BENCH_CHECK_OK(u2.status());
  std::printf("Psi over U:    results %s  | cost %0.f vs %0.f\n",
              Canon(u1->rows) == Canon(u2->rows) ? "EQUAL" : "DIFFER",
              u1->predicted_cost.total(), u2->predicted_cost.total());
  json.Record("psi_over_union", "cost_original", u1->predicted_cost.total());
  json.Record("psi_over_union", "cost_rewritten",
              u2->predicted_cost.total());

  // ---- filter pushdown ----------------------------------------------------
  auto filtered = LFilter(
      psi, Cmp(CompareOp::kLt, Col(0, "id"), Lit(Value::Int32(300))));
  auto pushed =
      algebra::PushFilterIntoJoin(filtered, names_schema.NumColumns());
  BENCH_CHECK_OK(pushed.status());
  auto f1 = session->Query(filtered);
  auto f2 = session->Query(*pushed);
  BENCH_CHECK_OK(f1.status());
  BENCH_CHECK_OK(f2.status());
  std::printf("sigma pushdown: results %s | cost %0.f vs %0.f "
              "(pushdown cheaper)\n",
              Canon(f1->rows) == Canon(f2->rows) ? "EQUAL" : "DIFFER",
              f1->predicted_cost.total(), f2->predicted_cost.total());
  json.Record("sigma_pushdown", "cost_original", f1->predicted_cost.total());
  json.Record("sigma_pushdown", "cost_rewritten",
              f2->predicted_cost.total());
  return 0;
}
