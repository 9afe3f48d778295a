// Concurrency stress: many LexJoin + LexSelect queries running at once on
// a worker pool, all sharing one session PhonemeCache, with their storage
// behind a fault-injected BufferPool.  Exercised under the tsan preset in CI
// (MURAL_SANITIZE=thread); asserts here are about Status propagation and
// result stability, the data-race checking is the sanitizer's job.
//
// Thread-safety contract under test: the session PhonemeCache is shared
// across ALL tasks, and each task's engine stack (disk -> fault-injection
// wrapper -> buffer pool -> catalog) is itself shared between that task's
// nested morsel workers — BufferPool and Catalog are thread-safe since
// the latched page-guard redesign, and the nested-parallel Psi scan reads
// its heap through concurrent read guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "exec/exec_context.h"
#include "exec/mural_ops.h"
#include "exec/scan_ops.h"
#include "phonetic/phoneme_cache.h"
#include "storage/fault_injection.h"

namespace mural {
namespace {

std::string RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      line += v.ToString();
      line += '|';
    }
    rendered.push_back(std::move(line));
  }
  std::sort(rendered.begin(), rendered.end());
  std::string out;
  for (std::string& line : rendered) {
    out += line;
    out += '\n';
  }
  return out;
}

// One query's private engine: its own disk, fault wrapper, (tiny) buffer
// pool and catalog, holding two UniText name tables.  Phonemes are NOT
// materialized, so the join must run G2P — through the shared cache.
struct PrivateEngine {
  MemoryDiskManager inner;
  FaultInjectionDiskManager faulty{&inner};
  // 4 frames against ~16 heap pages (wide pad column below): scans MUST
  // read through the fault-injection layer, evicting as they go.
  BufferPool pool{&faulty, 4};
  Catalog catalog{&pool};
  TableInfo* left = nullptr;
  TableInfo* right = nullptr;
  Value probe;  // a name stored in `right`, for the Psi scan

  [[nodiscard]] Status Populate(uint64_t seed) {
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText},
                         {"pad", TypeId::kText}});
    MURAL_ASSIGN_OR_RETURN(left, catalog.CreateTable("l", schema));
    MURAL_ASSIGN_OR_RETURN(right, catalog.CreateTable("r", schema));
    NameGenOptions options;
    options.seed = seed;
    options.num_bases = 40;
    options.variants_per_base = 3;
    const Value pad = Value::Text(std::string(600, 'p'));
    TableWriter lw(left);
    for (const NameRecord& rec : GenerateNames(options)) {
      MURAL_RETURN_IF_ERROR(
          lw.Insert({Value::Int32(static_cast<int32_t>(rec.id)),
                     Value::Uni(rec.name), pad})
              .status());
    }
    options.num_bases = 30;
    TableWriter rw(right);
    const std::vector<NameRecord> right_names = GenerateNames(options);
    probe = Value::Uni(right_names.front().name);
    for (const NameRecord& rec : right_names) {
      MURAL_RETURN_IF_ERROR(
          rw.Insert({Value::Int32(static_cast<int32_t>(rec.id)),
                     Value::Uni(rec.name), pad})
              .status());
    }
    return Status::OK();
  }
};

// Runs one Psi join over the engine's tables, then one Psi scan of the
// right table, and returns both results concatenated.  `cache` is the
// shared session cache; `nested_pool` (may be null) parallelizes both
// operators, nesting morsel workers inside the stress task.
StatusOr<std::vector<Row>> RunJoin(PrivateEngine* engine, PhonemeCache* cache,
                                   ThreadPool* nested_pool) {
  ExecContext ctx;
  ctx.lexequal_threshold = 2;
  ctx.phoneme_cache = cache;
  LexJoinOp::Options options;
  options.threshold = 2;
  int scan_dop = 1;
  if (nested_pool != nullptr) {
    ctx.thread_pool = nested_pool;
    ctx.degree_of_parallelism = 2;
    options.dop = 2;
    scan_dop = 2;
  }
  LexJoinOp join(&ctx, std::make_unique<SeqScanOp>(&ctx, engine->left),
                 std::make_unique<SeqScanOp>(&ctx, engine->right), 1, 1,
                 options);
  MURAL_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectAll(&join));
  // Scan workers fetch the right heap's pages concurrently through read
  // guards — with 4 frames against ~16 heap pages, that contends on the
  // pool's table lock and eviction path too.
  SeqScanOp scan(&ctx, engine->right, PsiScanKey{1, engine->probe, 2},
                 /*residual=*/nullptr, scan_dop);
  MURAL_ASSIGN_OR_RETURN(std::vector<Row> matches, CollectAll(&scan));
  if (matches.empty()) return Status::Internal("Psi scan found no match");
  rows.insert(rows.end(), matches.begin(), matches.end());
  return rows;
}

TEST(ParallelStressTest, ConcurrentJoinsShareOnePhonemeCache) {
  // All tasks use the same seed, so their key sets are identical: after
  // the first query warms a key, every other query's lookup is a hit.
  PhonemeCache cache(1 << 14);
  constexpr int kTasks = 8;
  std::vector<std::unique_ptr<PrivateEngine>> engines;
  for (int t = 0; t < kTasks; ++t) {
    engines.push_back(std::make_unique<PrivateEngine>());
    ASSERT_TRUE(engines.back()->Populate(/*seed=*/42).ok()) << t;
  }

  // Serial reference (its own engine, same seed, no cache sharing).
  PrivateEngine reference_engine;
  ASSERT_TRUE(reference_engine.Populate(42).ok());
  auto reference = RunJoin(&reference_engine, nullptr, nullptr);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());
  const std::string expected = RenderRows(*reference);

  ThreadPool task_pool(4);
  ThreadPool nested_pool(2);  // separate pool: no starvation deadlock
  std::vector<std::future<Status>> futures;
  for (int t = 0; t < kTasks; ++t) {
    PrivateEngine* engine = engines[t].get();
    // Odd tasks additionally parallelize the join itself, nesting morsel
    // workers inside the concurrent query.
    ThreadPool* nested = (t % 2 == 1) ? &nested_pool : nullptr;
    futures.push_back(task_pool.Submit([engine, &cache, nested, &expected] {
      for (int round = 0; round < 3; ++round) {
        StatusOr<std::vector<Row>> rows = RunJoin(engine, &cache, nested);
        MURAL_RETURN_IF_ERROR(rows.status());
        if (RenderRows(*rows) != expected) {
          return Status::Internal("concurrent join diverged from reference");
        }
      }
      return Status::OK();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  // The workload repeats one key set 24x across threads: the shared cache
  // must have served most lookups from memory.
  EXPECT_GT(cache.hits(), cache.misses());
  EXPECT_GT(cache.size(), 0u);
}

TEST(ParallelStressTest, ArmedFaultsPropagateAndRecoveryWorks) {
  PhonemeCache cache(1 << 12);
  constexpr int kTasks = 6;
  std::vector<std::unique_ptr<PrivateEngine>> engines;
  for (int t = 0; t < kTasks; ++t) {
    engines.push_back(std::make_unique<PrivateEngine>());
    ASSERT_TRUE(engines.back()->Populate(/*seed=*/7).ok()) << t;
    // Arm every other engine's disk: those queries must fail with a
    // clean IOError Status (never crash, never return partial results as
    // success).
    if (t % 2 == 0) engines[t]->faulty.Arm(0);
  }

  ThreadPool task_pool(4);
  ThreadPool nested_pool(2);
  std::vector<std::future<Status>> futures;
  for (int t = 0; t < kTasks; ++t) {
    PrivateEngine* engine = engines[t].get();
    futures.push_back(task_pool.Submit([engine, &cache, &nested_pool] {
      StatusOr<std::vector<Row>> rows =
          RunJoin(engine, &cache, &nested_pool);
      return rows.ok() ? Status::OK() : rows.status();
    }));
  }
  for (int t = 0; t < kTasks; ++t) {
    const Status s = futures[t].get();
    if (t % 2 == 0) {
      EXPECT_FALSE(s.ok()) << t;
      EXPECT_EQ(s.code(), StatusCode::kIOError) << t << " " << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << t << " " << s.ToString();
    }
  }

  // Disarm and rerun everything concurrently: all queries now succeed and
  // agree with each other (the fault never corrupted stored data).
  for (auto& engine : engines) engine->faulty.Disarm();
  std::vector<std::future<Status>> retry;
  std::vector<std::string> rendered(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    PrivateEngine* engine = engines[t].get();
    std::string* out = &rendered[t];
    retry.push_back(task_pool.Submit([engine, &cache, &nested_pool, out] {
      StatusOr<std::vector<Row>> rows =
          RunJoin(engine, &cache, &nested_pool);
      MURAL_RETURN_IF_ERROR(rows.status());
      *out = RenderRows(*rows);
      return Status::OK();
    }));
  }
  for (auto& f : retry) EXPECT_TRUE(f.get().ok());
  for (int t = 1; t < kTasks; ++t) EXPECT_EQ(rendered[t], rendered[0]) << t;
  EXPECT_FALSE(rendered[0].empty());
}

}  // namespace
}  // namespace mural
