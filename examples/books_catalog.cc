// books_catalog: the full Books.com scenario — a generated multilingual
// catalog (authors, publishers, books, a replicated-WordNet taxonomy),
// metric indexes, ANALYZE, and a mix of monolingual and cross-lingual
// queries with their EXPLAIN output and per-query execution counters.
//
//   $ ./build/examples/books_catalog

#include <cstdio>

#include "datagen/catalog_generator.h"
#include "engine/database.h"
#include "session/session.h"

using namespace mural;

namespace {

Status LoadCatalog(Database* db, Session* session,
                   const BooksDataset& data) {
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE Author (AuthorID INT,"
                   " AName UNITEXT MATERIALIZE PHONEMES)")
          .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE Publisher (PublisherID INT,"
                   " PName UNITEXT MATERIALIZE PHONEMES)")
          .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE Book (BookID INT, AuthorID INT,"
                   " PublisherID INT, Title UNITEXT, Category UNITEXT)")
          .status());
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
                            Value::Int32(b.publisher_id),
                            Value::Uni(b.title), Value::Uni(b.category)}));
  }
  for (const char* t : {"Author", "Publisher", "Book"}) {
    MURAL_RETURN_IF_ERROR(db->Analyze(t));
  }
  return Status::OK();
}

void Report(const char* title, const QueryResult& result) {
  std::printf("== %s ==\n", title);
  std::printf("%s", result.ToTable(8).c_str());
  std::printf(
      "[%zu rows in %.2f ms; predicted rows %.0f, %s; "
      "distance calls %llu, index probes %llu]\n\n",
      result.rows.size(), result.runtime_ms, result.predicted_rows,
      result.predicted_cost.ToString().c_str(),
      static_cast<unsigned long long>(result.exec_stats.distance.calls),
      static_cast<unsigned long long>(result.exec_stats.index_probes));
}

Status RunCatalog() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());

  // Generate the world: taxonomy first (categories come from it).
  TaxonomyGenOptions tax_options;
  tax_options.seed = 2026;
  tax_options.base_synsets = 3000;
  tax_options.languages = {lang::kEnglish, lang::kHindi, lang::kTamil};
  GeneratedTaxonomy taxonomy = GenerateTaxonomy(tax_options);

  BooksGenOptions options;
  options.seed = 2026;
  options.num_authors = 2000;
  options.num_publishers = 300;
  options.num_books = 5000;
  options.publisher_author_overlap = 0.15;
  const BooksDataset data = GenerateBooks(options, taxonomy);

  std::printf("Loading %zu authors, %zu publishers, %zu books...\n\n",
              data.authors.size(), data.publishers.size(),
              data.books.size());
  MURAL_RETURN_IF_ERROR(LoadCatalog(db.get(), session.get(), data));

  // Pick a real author to search for before the taxonomy moves.
  const UniText probe_author = data.authors[42].name;
  const Synset& probe_concept =
      taxonomy.taxonomy->Get(taxonomy.base_synsets[5]);
  const UniText probe_category(probe_concept.lemma, probe_concept.lang);
  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(taxonomy.taxonomy)));

  // Indexes: metric index on author phonemes, B+Tree on Book.AuthorID.
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE INDEX author_mtree ON Author(AName) USING MTREE")
          .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE INDEX book_author ON Book(AuthorID) USING BTREE")
          .status());
  MURAL_RETURN_IF_ERROR(session->Sql("SET LEXEQUAL_THRESHOLD = 2").status());

  // 1. Monolingual warm-up: exact lookup through the B+Tree.
  MURAL_ASSIGN_OR_RETURN(
      QueryResult by_author,
      session->Sql("SELECT BookID, Title FROM Book WHERE AuthorID = 42"));
  Report("Books by author #42 (B+Tree lookup)", by_author);

  // 2. LexEQUAL scan: all spellings of one author across languages.
  MURAL_ASSIGN_OR_RETURN(
      QueryResult psi_scan,
      session->Sql("SELECT AuthorID, AName FROM Author WHERE AName LexEQUAL '" +
                   probe_author.text() + "'@" +
                   LanguageRegistry::Default().NameOf(probe_author.lang())));
  Report(("LexEQUAL scan for '" + probe_author.text() + "'").c_str(),
         psi_scan);

  // 3. LexEQUAL join: authors who sound like publishers (§5.2.1's query).
  MURAL_ASSIGN_OR_RETURN(
      QueryResult psi_join,
      session->Sql("SELECT count(*) FROM Author A, Publisher P "
                   "WHERE A.AName LexEQUAL P.PName"));
  Report("Authors homophonic with a publisher (count)", psi_join);

  // 4. SemEQUAL: books in a concept subtree, any language.
  MURAL_ASSIGN_OR_RETURN(
      QueryResult omega,
      session->Sql("SELECT count(*) FROM Book WHERE Category SemEQUAL '" +
                   probe_category.text() + "'@" +
                   LanguageRegistry::Default().NameOf(probe_category.lang())));
  Report(("SemEQUAL count under concept '" + probe_category.text() + "'")
             .c_str(),
         omega);

  // 5. Aggregation over the multilingual catalog.
  MURAL_ASSIGN_OR_RETURN(
      QueryResult top,
      session->Sql("SELECT AuthorID, count(*) AS books FROM Book "
                   "GROUP BY AuthorID ORDER BY books DESC LIMIT 5"));
  Report("Most prolific authors", top);
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = RunCatalog();
  if (!status.ok()) {
    std::fprintf(stderr, "books_catalog failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
