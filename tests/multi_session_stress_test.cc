// Multi-session differential stress: >= 16 concurrent sessions with
// different LexEQUAL thresholds, DOPs, and batch sizes hammer ONE shared
// Database, and every session's results must be bit-identical to a serial
// run of the same workload on a fresh single-session engine configured
// the same way.  Runs under the TSan preset in CI (the suite name is in
// the tsan ctest filter), so the shared catalog/stats/plan-cache/
// admission paths are also exercised for data races.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "engine/database.h"
#include "mural/algebra.h"
#include "session/session.h"

namespace mural {
namespace {

constexpr size_t kSessions = 16;
constexpr size_t kBases = 300;
constexpr size_t kVariants = 3;
constexpr uint64_t kSeed = 42;

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

std::vector<std::string> RenderAll(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RenderRow(r));
  return out;
}

/// The per-session configuration sweep: thresholds 1..3, DOP 1/2/4,
/// batch sizes from tuple-at-a-time to the default.
SessionOptions ConfigFor(size_t i) {
  SessionOptions options;
  options.lexequal_threshold = 1 + static_cast<int>(i % 3);
  options.degree_of_parallelism = 1 << (i % 3);
  constexpr int64_t kBatches[] = {0, 7, 256, 1024};
  options.batch_size = kBatches[i % 4];
  return options;
}

Schema NamesSchema() {
  return Schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, /*mat=*/true}});
}

StatusOr<std::unique_ptr<Database>> MakeNamesDatabase() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  MURAL_RETURN_IF_ERROR(db->CreateTable("names", NamesSchema()));
  NameGenOptions options;
  options.seed = kSeed;
  options.num_bases = kBases;
  options.variants_per_base = kVariants;
  for (const NameRecord& rec : GenerateNames(options)) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("names", {Value::Int32(static_cast<int32_t>(rec.id)),
                             Value::Uni(rec.name)}));
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("names"));
  return db;
}

/// The probe set every session runs (Psi selections resolve the
/// threshold from the session, so the same plans diverge per config).
std::vector<UniText> Probes() {
  NameGenOptions options;
  options.seed = kSeed;
  options.num_bases = kBases;
  options.variants_per_base = kVariants;
  std::vector<NameRecord> records = GenerateNames(options);
  return {records[1].name, records[57].name, records[200].name};
}

/// One session's whole workload; the returned transcript (statement
/// results rendered in order) is what must match the serial reference.
StatusOr<std::vector<std::string>> RunWorkload(Session* session) {
  std::vector<std::string> transcript;
  for (const UniText& probe : Probes()) {
    const LogicalPtr plan = MuralBuilder::Scan("names", NamesSchema())
                                .PsiSelect("name", probe)
                                .Build();
    MURAL_ASSIGN_OR_RETURN(QueryResult result, session->Query(plan));
    std::vector<std::string> rendered = RenderAll(result.rows);
    transcript.insert(transcript.end(), rendered.begin(), rendered.end());
    transcript.push_back("--");
  }
  // A SQL statement with identical text across sessions, so sessions with
  // equal knobs share one plan-cache entry concurrently and sessions with
  // different knobs must not.
  MURAL_ASSIGN_OR_RETURN(
      QueryResult sql_result,
      session->Sql("SELECT name FROM names WHERE id < 40"));
  std::vector<std::string> rendered = RenderAll(sql_result.rows);
  transcript.insert(transcript.end(), rendered.begin(), rendered.end());
  return transcript;
}

TEST(MultiSessionStressTest, SixteenConcurrentSessionsMatchSerialRuns) {
  auto shared = MakeNamesDatabase();
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();

  // Mint all sessions up front (also proves Connect is thread-compatible
  // with later concurrent use; minting itself is cheap and serial here).
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    auto session = (*shared)->Connect(ConfigFor(i));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }

  // Concurrent phase: every session runs its workload on its own pool
  // thread, twice, against the one shared engine.
  std::vector<std::vector<std::string>> transcripts(kSessions);
  {
    ThreadPool pool(kSessions);
    std::vector<std::future<Status>> tasks;
    tasks.reserve(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      Session* session = sessions[i].get();
      std::vector<std::string>* out = &transcripts[i];
      tasks.push_back(pool.Submit([session, out] {
        for (int round = 0; round < 2; ++round) {
          MURAL_ASSIGN_OR_RETURN(std::vector<std::string> transcript,
                                 RunWorkload(session));
          if (round == 0) {
            *out = std::move(transcript);
          } else if (transcript != *out) {
            // Round 2 replays through the now-warm plan cache; any
            // divergence from round 1 is a caching bug.
            return Status::Internal("round 2 diverged from round 1");
          }
        }
        return Status::OK();
      }));
    }
    for (std::future<Status>& task : tasks) {
      const Status status = task.get();
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }

  // Serial reference: a fresh single-session engine per distinct config
  // (12 distinct configs for 16 sessions — the sweep wraps).
  for (size_t i = 0; i < kSessions; ++i) {
    const SessionOptions config = ConfigFor(i);
    auto fresh = MakeNamesDatabase();
    ASSERT_TRUE(fresh.ok());
    auto reference = (*fresh)->Connect(config);
    ASSERT_TRUE(reference.ok());
    auto expected = RunWorkload(reference->get());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(transcripts[i], *expected)
        << "session " << i << " (threshold="
        << config.lexequal_threshold
        << " dop=" << config.degree_of_parallelism
        << " batch=" << config.batch_size
        << ") diverged from its serial reference";
  }
}

}  // namespace
}  // namespace mural
