// crosslingual_join: the optimization example of paper §5.2.1 in
// miniature — "find the books whose author's name sounds like a
// publisher's name" — with the optimizer's two candidate plans (Fig. 7)
// forced via hints, their predicted costs, and their measured runtimes.
//
//   $ ./build/examples/crosslingual_join

#include <cstdio>

#include "datagen/catalog_generator.h"
#include "engine/database.h"
#include "mural/algebra.h"
#include "session/session.h"

using namespace mural;

namespace {

Status Run() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());

  TaxonomyGenOptions tax_options;
  tax_options.base_synsets = 500;
  GeneratedTaxonomy taxonomy = GenerateTaxonomy(tax_options);
  BooksGenOptions options;
  options.num_authors = 1500;
  options.num_publishers = 200;
  options.num_books = 4000;
  options.publisher_author_overlap = 0.2;
  const BooksDataset data = GenerateBooks(options, taxonomy);

  Schema author_schema({{"AuthorID", TypeId::kInt32},
                        {"AName", TypeId::kUniText, true}});
  Schema publisher_schema({{"PublisherID", TypeId::kInt32},
                           {"PName", TypeId::kUniText, true}});
  Schema book_schema({{"BookID", TypeId::kInt32},
                      {"AuthorID", TypeId::kInt32},
                      {"PublisherID", TypeId::kInt32}});
  MURAL_RETURN_IF_ERROR(db->CreateTable("Author", author_schema));
  MURAL_RETURN_IF_ERROR(db->CreateTable("Publisher", publisher_schema));
  MURAL_RETURN_IF_ERROR(db->CreateTable("Book", book_schema));
  for (const AuthorRow& a : data.authors) {
    MURAL_RETURN_IF_ERROR(db->Insert(
        "Author", {Value::Int32(a.author_id), Value::Uni(a.name)}));
  }
  for (const PublisherRow& p : data.publishers) {
    MURAL_RETURN_IF_ERROR(db->Insert(
        "Publisher", {Value::Int32(p.publisher_id), Value::Uni(p.name)}));
  }
  for (const BookRow& b : data.books) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("Book", {Value::Int32(b.book_id),
                            Value::Int32(b.author_id),
                            Value::Int32(b.publisher_id)}));
  }
  for (const char* t : {"Author", "Publisher", "Book"}) {
    MURAL_RETURN_IF_ERROR(db->Analyze(t));
  }
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());
  MURAL_RETURN_IF_ERROR(session->Set("lexequal_threshold", 3));

  // ---- Plan 1 (the good one): Psi(Author, Publisher) first, then join
  //      Book on AuthorID.  The Psi join touches |A| x |P| pairs once.
  auto plan1 =
      MuralBuilder::Scan("Author", author_schema)
          .PsiJoin(MuralBuilder::Scan("Publisher", publisher_schema),
                   "AName", "PName")
          .Join(MuralBuilder::Scan("Book", book_schema), "AuthorID",
                "AuthorID")
          .Aggregate({}, {{AggKind::kCountStar, 0, "books"}})
          .Build();

  // ---- Plan 2 (the bad one): join Book with Author first (inflating the
  //      left side to |B| rows), then Psi against Publisher — the
  //      phonemic comparison now runs |B| x |P| times.
  auto plan2 =
      MuralBuilder::Scan("Book", book_schema)
          .Join(MuralBuilder::Scan("Author", author_schema), "AuthorID",
                "AuthorID")
          .PsiJoin(MuralBuilder::Scan("Publisher", publisher_schema),
                   "AName", "PName")
          .Aggregate({}, {{AggKind::kCountStar, 0, "books"}})
          .Build();

  std::printf("Query: books whose author sounds like a publisher "
              "(threshold 3)\n\n");
  for (const auto& [name, plan] :
       {std::make_pair("Plan 1 (Psi before join)", plan1),
        std::make_pair("Plan 2 (Psi after join)", plan2)}) {
    MURAL_ASSIGN_OR_RETURN(QueryResult result, session->Query(plan));
    std::printf("---- %s ----\n%s", name, result.explain.c_str());
    std::printf("matches: %lld   runtime: %.1f ms\n\n",
                static_cast<long long>(result.rows[0][0].int64()),
                result.runtime_ms);
  }

  std::printf(
      "The optimizer's cost model orders the plans the same way the\n"
      "runtimes do — the property §5.2.1 demonstrates on PostgreSQL.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "crosslingual_join failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
