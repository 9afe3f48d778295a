// metrics_dump: runs a small seeded multilingual workload against an
// in-memory Database and prints the engine's MetricsRegistry in Prometheus
// text exposition format.  Use it to see which counters, gauges, and
// histograms the engine exports, or pipe its output into promtool for a
// format check:
//
//   $ ./build/tools/metrics_dump/metrics_dump
//   $ ./build/tools/metrics_dump/metrics_dump | promtool check metrics
//
// Metrics register lazily on first touch, so the dump lists what the
// workload exercised: buffer pool fetches, the phoneme cache, the closure
// cache (SemEQUAL), operator spans, and the optimizer's q-error histogram.

#include <cstdio>

#include "common/metrics.h"
#include "engine/database.h"
#include "session/session.h"

using namespace mural;

namespace {

Status RunWorkload() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE Book ("
                   "  BookID   INT,"
                   "  Author   UNITEXT MATERIALIZE PHONEMES,"
                   "  Title    UNITEXT,"
                   "  Category UNITEXT)")
          .status());

  const char* inserts[] = {
      "INSERT INTO Book VALUES (1, 'nehru'@English,"
      " 'The Discovery of India'@English, 'History'@English)",
      "INSERT INTO Book VALUES (2, 'nehrU'@Hindi,"
      " 'Bharat Ki Khoj'@Hindi, 'Itihaas'@Hindi)",
      "INSERT INTO Book VALUES (3, 'neharu'@Tamil,"
      " 'India Kandupidippu'@Tamil, 'Charitram'@Tamil)",
      "INSERT INTO Book VALUES (4, 'gandhi'@English,"
      " 'My Experiments with Truth'@English, 'Autobiography'@English)",
      "INSERT INTO Book VALUES (5, 'rousseau'@French,"
      " 'Du Contrat Social'@French, 'Philosophy'@English)",
      "INSERT INTO Book VALUES (6, 'russo'@English,"
      " 'Empire Falls'@English, 'Fiction'@English)",
  };
  for (const char* stmt : inserts) {
    MURAL_RETURN_IF_ERROR(session->Sql(stmt).status());
  }
  MURAL_RETURN_IF_ERROR(session->Sql("CREATE INDEX idx_book_id ON Book(BookID) "
                                     "USING BTREE")
                            .status());
  MURAL_RETURN_IF_ERROR(session->Sql("ANALYZE Book").status());

  // Taxonomy for the SemEQUAL (closure cache) path.
  auto taxonomy = std::make_unique<Taxonomy>();
  const SynsetId history = taxonomy->AddSynset(lang::kEnglish, "History");
  const SynsetId autob = taxonomy->AddSynset(lang::kEnglish, "Autobiography");
  const SynsetId itihaas = taxonomy->AddSynset(lang::kHindi, "Itihaas");
  MURAL_RETURN_IF_ERROR(taxonomy->AddIsA(autob, history));
  MURAL_RETURN_IF_ERROR(taxonomy->AddEquivalence(history, itihaas));
  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(taxonomy)));

  // Exercise the instrumented paths: Psi scan (phoneme cache + morsels),
  // B+Tree probe, Omega closure, and a slow-query-eligible EXPLAIN ANALYZE.
  MURAL_RETURN_IF_ERROR(session->Sql("SET DEGREE_OF_PARALLELISM = 4").status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("SELECT Author, Title FROM Book "
                   "WHERE Author LexEQUAL 'nehru'@English THRESHOLD 2")
          .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("SELECT Title FROM Book WHERE BookID = 2").status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("SELECT Author, Category FROM Book "
                   "WHERE Category SemEQUAL 'History'@English")
          .status());
  MURAL_RETURN_IF_ERROR(
      session->Sql("EXPLAIN ANALYZE SELECT Author FROM Book "
                   "WHERE Author LexEQUAL 'nehru'@English THRESHOLD 2")
          .status());
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = RunWorkload();
  if (!status.ok()) {
    std::fprintf(stderr, "metrics_dump workload failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fputs(MetricsRegistry::Global().TextExposition().c_str(), stdout);
  return 0;
}
