// Quickstart: create a multilingual table, load a few books, and run the
// paper's two headline queries (LexEQUAL, Fig. 2 and SemEQUAL, Fig. 4)
// through the SQL surface.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "engine/database.h"
#include "session/session.h"

using namespace mural;

namespace {

Status RunQuickstart() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());

  // --- schema: the Books.com catalog of the paper's Figure 1 ------------
  MURAL_RETURN_IF_ERROR(
      session->Sql("CREATE TABLE Book ("
                   "  BookID   INT,"
                   "  Author   UNITEXT MATERIALIZE PHONEMES,"
                   "  Title    UNITEXT,"
                   "  Category UNITEXT)")
          .status());

  // --- data: one author, many languages ---------------------------------
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

  // --- LexEQUAL: the paper's Figure 2 ------------------------------------
  std::printf("== LexEQUAL: who sounds like 'Nehru'? (threshold 2) ==\n");
  MURAL_RETURN_IF_ERROR(session->Sql("SET LEXEQUAL_THRESHOLD = 2").status());
  MURAL_ASSIGN_OR_RETURN(
      QueryResult psi,
      session->Sql("SELECT Author, Title FROM Book "
                   "WHERE Author LexEQUAL 'nehru'@English "
                   "IN English, Hindi, Tamil"));
  std::printf("%s\n", psi.ToTable().c_str());

  // Phonetic matching is language-aware: French 'rousseau' and English
  // 'russo' land on nearby phoneme strings.
  std::printf("== LexEQUAL join flavour: 'rousseau' variants ==\n");
  MURAL_ASSIGN_OR_RETURN(
      QueryResult psi2,
      session->Sql("SELECT Author, Title FROM Book "
                   "WHERE Author LexEQUAL 'rousseau'@French THRESHOLD 2"));
  std::printf("%s\n", psi2.ToTable().c_str());

  // --- SemEQUAL: the paper's Figure 4 ------------------------------------
  // Interlinked concept hierarchy: History subsumes Autobiography; the
  // Hindi and Tamil words for History are linked as equivalents.
  auto taxonomy = std::make_unique<Taxonomy>();
  const SynsetId history = taxonomy->AddSynset(lang::kEnglish, "History");
  const SynsetId autob =
      taxonomy->AddSynset(lang::kEnglish, "Autobiography");
  const SynsetId itihaas = taxonomy->AddSynset(lang::kHindi, "Itihaas");
  const SynsetId charitram = taxonomy->AddSynset(lang::kTamil, "Charitram");
  taxonomy->AddSynset(lang::kEnglish, "Philosophy");
  taxonomy->AddSynset(lang::kEnglish, "Fiction");
  MURAL_RETURN_IF_ERROR(taxonomy->AddIsA(autob, history));
  MURAL_RETURN_IF_ERROR(taxonomy->AddEquivalence(history, itihaas));
  MURAL_RETURN_IF_ERROR(taxonomy->AddEquivalence(history, charitram));
  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(taxonomy)));

  std::printf("== SemEQUAL: every History book, in any language ==\n");
  MURAL_ASSIGN_OR_RETURN(
      QueryResult omega,
      session->Sql("SELECT Author, Title, Category FROM Book "
                   "WHERE Category SemEQUAL 'History'@English "
                   "IN English, Hindi, Tamil"));
  std::printf("%s\n", omega.ToTable().c_str());

  // --- EXPLAIN: what the optimizer did ------------------------------------
  MURAL_ASSIGN_OR_RETURN(
      QueryResult explain,
      session->Sql("EXPLAIN SELECT Author FROM Book "
                   "WHERE Author LexEQUAL 'nehru'@English"));
  std::printf("== EXPLAIN ==\n%s\n", explain.explain.c_str());
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = RunQuickstart();
  if (!status.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
