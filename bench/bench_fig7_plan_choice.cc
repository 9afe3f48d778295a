// Experiment EX5 — paper §5.2.1 and Figure 7: the motivating optimization
// example.
//
// Query: "find the books whose author's name sounds like that of a
// publisher's name (match threshold of 3)" over Author/Book/Publisher.
// Two semantically equivalent plans:
//
//   Plan 1:  (Author Psi Publisher)  then join Book      — paper:
//            predicted 2,439,370, runtime 82.15 s
//   Plan 2:  (Book join Author) then Psi Publisher       — paper:
//            predicted 7,513,852, runtime 2338.31 s
//
// Shape to reproduce: the optimizer's predicted costs order the plans the
// same way the runtimes do, and Plan 1 wins decisively; both plans return
// identical answers.

#include <cstdio>

#include "bench_util.h"
#include "mural/algebra.h"

using namespace mural;
using namespace mural::bench;

int main() {
  JsonReporter json("fig7_plan_choice");
  std::printf("=== §5.2.1 / Figure 7: plan choice for the "
              "author~publisher query (threshold 3) ===\n\n");

  auto db_or = Database::Open();
  BENCH_CHECK_OK(db_or.status());
  std::unique_ptr<Database> db = std::move(*db_or);

  TaxonomyGenOptions tax_options;
  tax_options.base_synsets = 500;
  GeneratedTaxonomy taxonomy = GenerateTaxonomy(tax_options);
  BooksGenOptions options;
  options.seed = 42;
  options.num_authors = 3000;
  options.num_publishers = 400;
  options.num_books = 9000;
  options.publisher_author_overlap = 0.15;
  const BooksDataset data = GenerateBooks(options, taxonomy);

  Schema author_schema({{"AuthorID", TypeId::kInt32},
                        {"AName", TypeId::kUniText, true}});
  Schema publisher_schema({{"PublisherID", TypeId::kInt32},
                           {"PName", TypeId::kUniText, true}});
  Schema book_schema({{"BookID", TypeId::kInt32},
                      {"AuthorID", TypeId::kInt32},
                      {"PublisherID", TypeId::kInt32}});
  BENCH_CHECK_OK(db->CreateTable("Author", author_schema));
  BENCH_CHECK_OK(db->CreateTable("Publisher", publisher_schema));
  BENCH_CHECK_OK(db->CreateTable("Book", book_schema));
  for (const AuthorRow& a : data.authors) {
    BENCH_CHECK_OK(db->Insert(
        "Author", {Value::Int32(a.author_id), Value::Uni(a.name)}));
  }
  for (const PublisherRow& p : data.publishers) {
    BENCH_CHECK_OK(db->Insert(
        "Publisher", {Value::Int32(p.publisher_id), Value::Uni(p.name)}));
  }
  for (const BookRow& b : data.books) {
    BENCH_CHECK_OK(db->Insert("Book", {Value::Int32(b.book_id),
                                       Value::Int32(b.author_id),
                                       Value::Int32(b.publisher_id)}));
  }
  for (const char* t : {"Author", "Publisher", "Book"}) {
    BENCH_CHECK_OK(db->Analyze(t));
  }
  std::unique_ptr<Session> session = MustConnect(db.get());
  BENCH_CHECK_OK(session->Set("lexequal_threshold", 3));

  auto plan1 =
      MuralBuilder::Scan("Author", author_schema)
          .PsiJoin(MuralBuilder::Scan("Publisher", publisher_schema),
                   "AName", "PName")
          .Join(MuralBuilder::Scan("Book", book_schema), "AuthorID",
                "AuthorID")
          .Aggregate({}, {{AggKind::kCountStar, 0, "books"}})
          .Build();
  auto plan2 =
      MuralBuilder::Scan("Book", book_schema)
          .Join(MuralBuilder::Scan("Author", author_schema), "AuthorID",
                "AuthorID")
          .PsiJoin(MuralBuilder::Scan("Publisher", publisher_schema),
                   "AName", "PName")
          .Aggregate({}, {{AggKind::kCountStar, 0, "books"}})
          .Build();

  double predicted[2] = {0, 0};
  double runtime[2] = {0, 0};
  long long answers[2] = {0, 0};
  int i = 0;
  for (const auto& [name, plan] : {std::make_pair("Plan 1", plan1),
                                   std::make_pair("Plan 2", plan2)}) {
    auto result = session->Query(plan);
    BENCH_CHECK_OK(result.status());
    predicted[i] = result->predicted_cost.total();
    answers[i] = result->rows[0][0].int64();
    runtime[i] = TimeMedianMs(3, [&] {
      auto rerun = session->Query(plan);
      BENCH_CHECK_OK(rerun.status());
    });
    std::printf("---- %s ----\n%s", name, result->explain.c_str());
    std::printf("answer: %lld, runtime %.1f ms\n\n", answers[i],
                runtime[i]);
    ++i;
  }

  std::printf("%-8s %18s %14s   (paper: plan1 2,439,370 / 82.15 s;"
              " plan2 7,513,852 / 2338.31 s)\n",
              "Plan", "predicted cost", "runtime ms");
  std::printf("%-8s %18.0f %14.1f\n", "Plan 1", predicted[0], runtime[0]);
  std::printf("%-8s %18.0f %14.1f\n", "Plan 2", predicted[1], runtime[1]);
  std::printf("\npredicted ratio plan2/plan1: %.2fx (paper: 3.1x)\n",
              predicted[1] / predicted[0]);
  std::printf("runtime   ratio plan2/plan1: %.2fx (paper: 28.5x)\n",
              runtime[1] / runtime[0]);
  json.Record("plan1", "predicted_cost", predicted[0]);
  json.Record("plan1", "runtime_ms", runtime[0]);
  json.Record("plan2", "predicted_cost", predicted[1]);
  json.Record("plan2", "runtime_ms", runtime[1]);
  const bool shape_ok = answers[0] == answers[1] &&
                        predicted[0] < predicted[1] &&
                        runtime[0] < runtime[1];
  std::printf("%s\n", shape_ok
                          ? "SHAPE OK: optimizer picks the faster plan"
                          : "SHAPE DEVIATION: ordering mismatch");
  return shape_ok ? 0 : 1;
}
