#include "layers.h"

#include <algorithm>

#include "catalog/tuple_codec.h"
#include "common/metrics.h"
#include "distance/bounded_myers.h"
#include "phonetic/transformer.h"
#include "report.h"
#include "session/session.h"
#include "sql/sql.h"

namespace murald_bench {

namespace {

constexpr int kThreshold = 2;

const char* const kCounters[] = {
    "engine.plan_cache.hits",        "engine.plan_cache.misses",
    "storage.buffer_pool.hits",      "storage.buffer_pool.misses",
    "storage.buffer_pool.fetch_nanos", "exec.morsels_run",
    "exec.thread_pool.tasks_run",    "phonetic.phoneme_cache.hits",
    "phonetic.phoneme_cache.misses", "taxonomy.closure_cache.hits",
    "taxonomy.closure_cache.misses", "index.btree.probes",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Keeps a probe's result observable so its work is not optimized away.
volatile uint64_t g_sink = 0;

}  // namespace

uint64_t Tracer::Begin(const char* name, uint64_t parent) {
  spans_.push_back(Span{name, parent, NowNanos(), 0});
  return spans_.size();
}

int64_t Tracer::End(uint64_t id) {
  Span& span = spans_[id - 1];
  span.end_ns = NowNanos();
  return span.end_ns - span.start_ns;
}

void Tracer::Add(const char* name, uint64_t parent, int64_t start_ns,
                 int64_t end_ns) {
  spans_.push_back(Span{name, parent, start_ns, end_ns});
}

std::string Tracer::Json() const {
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    items.push_back(JsonObject()
                        .Int("id", static_cast<long long>(i + 1))
                        .Int("parent", static_cast<long long>(s.parent))
                        .Text("name", s.name)
                        .Int("start_ns", s.start_ns)
                        .Int("end_ns", s.end_ns)
                        .Str());
  }
  return JsonArray(items);
}

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snap;
  for (const char* name : kCounters) {
    snap[name] = mural::MetricsRegistry::Global().GetCounter(name)->value();
  }
  return snap;
}

void CounterMetrics(const CounterSnapshot& before,
                    const CounterSnapshot& after, size_t statements,
                    std::vector<Metric>* out) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.at(name) - before.at(name));
  };
  auto hit_ratio = [&](const char* hits, const char* misses) {
    return Ratio(delta(hits), delta(hits) + delta(misses));
  };
  const double n = static_cast<double>(statements);
  out->push_back({"engine.plan_cache.hit_ratio",
                  hit_ratio("engine.plan_cache.hits",
                            "engine.plan_cache.misses"),
                  "ratio"});
  out->push_back({"storage.buffer_pool.hit_ratio",
                  hit_ratio("storage.buffer_pool.hits",
                            "storage.buffer_pool.misses"),
                  "ratio"});
  out->push_back({"storage.buffer_pool.fetch_ms_per_query",
                  Ratio(delta("storage.buffer_pool.fetch_nanos") / 1e6, n),
                  "ms"});
  out->push_back({"exec.morsels_per_query",
                  Ratio(delta("exec.morsels_run"), n), "count"});
  out->push_back({"exec.pool_tasks_per_query",
                  Ratio(delta("exec.thread_pool.tasks_run"), n), "count"});
  out->push_back({"phonetic.phoneme_cache.hit_ratio",
                  hit_ratio("phonetic.phoneme_cache.hits",
                            "phonetic.phoneme_cache.misses"),
                  "ratio"});
  out->push_back({"taxonomy.closure_cache.hit_ratio",
                  hit_ratio("taxonomy.closure_cache.hits",
                            "taxonomy.closure_cache.misses"),
                  "ratio"});
  out->push_back({"index.btree.probes_per_query",
                  Ratio(delta("index.btree.probes"), n), "count"});
}

void ReplayLayers(Workload* workload, mural::Database* db, double budget_s,
                  Tracer* tracer, std::vector<Metric>* out, size_t* attempted,
                  size_t* failed) {
  auto connected = db->Connect(db->session_defaults());
  if (!connected.ok()) {
    ++*failed;
    return;
  }
  mural::Session& session = **connected;
  std::vector<double> parse_us, bind_us, plan_us, runtime_ms, qerror;
  mural::ExecStats total;
  size_t queries = 0;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(budget_s * 1e9);
  while (NowNanos() < deadline) {
    const Op op = workload->Next();
    if (op.sql.empty()) break;
    const uint64_t stmt = tracer->Begin("replay.statement");
    const std::string& text = op.select_sql.empty() ? op.sql : op.select_sql;
    uint64_t span = tracer->Begin("sql::Parse", stmt);
    auto parsed = mural::sql::Parse(text);
    parse_us.push_back(static_cast<double>(tracer->End(span)) / 1e3);
    // A statement without a SELECT (INSERT) is only parsed: re-running
    // it would change the data the oracle describes.
    if (!parsed.ok() || op.select_sql.empty()) {
      if (!parsed.ok()) ++*failed;
      tracer->End(stmt);
      continue;
    }
    ++*attempted;
    span = tracer->Begin("sql::Bind", stmt);
    auto bound = mural::sql::Bind(*parsed, db->catalog());
    bind_us.push_back(static_cast<double>(tracer->End(span)) / 1e3);
    if (!bound.ok()) {
      ++*failed;
      tracer->End(stmt);
      continue;
    }
    span = tracer->Begin("Session::PlanQuery", stmt);
    auto planned = session.PlanQuery(*bound);
    plan_us.push_back(static_cast<double>(tracer->End(span)) / 1e3);
    span = tracer->Begin("Session::Query", stmt);
    auto result = session.Query(*bound);
    tracer->End(span);
    tracer->End(stmt);
    if (!planned.ok() || !result.ok()) {
      ++*failed;
      continue;
    }
    std::vector<std::string> lines;
    for (const mural::Row& row : result->rows) {
      std::string line;
      for (size_t c = 0; c < row.size(); ++c) {
        line += (c ? " | " : "") + row[c].ToString();
      }
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    if (lines != *op.expected) ++*failed;
    runtime_ms.push_back(result->runtime_ms);
    qerror.push_back(result->max_qerror);
    total.Merge(result->exec_stats);
    ++queries;
  }
  const double n = static_cast<double>(queries);
  out->push_back({"sql.parse_us", Median(parse_us), "us"});
  out->push_back({"sql.bind_us", Median(bind_us), "us"});
  out->push_back({"optimizer.plan_us", Median(plan_us), "us"});
  out->push_back({"optimizer.max_qerror", Median(qerror), "ratio"});
  out->push_back({"exec.runtime_ms", Median(runtime_ms), "ms"});
  out->push_back({"exec.rows_examined_per_row_returned",
                  Ratio(static_cast<double>(total.predicate_evals),
                        static_cast<double>(total.rows_emitted)),
                  "ratio"});
  out->push_back({"distance.calls_per_query",
                  Ratio(static_cast<double>(total.distance.calls), n),
                  "count"});
  out->push_back({"distance.word_ops_per_query",
                  Ratio(static_cast<double>(total.distance.word_ops), n),
                  "count"});
  out->push_back(
      {"phonetic.cache_lookups_per_query",
       Ratio(static_cast<double>(total.phoneme_cache_hits +
                                 total.phoneme_cache_misses),
             n),
       "count"});
}

void ProbeLayers(const LayerInputs& in, mural::Database* db, Tracer* tracer,
                 std::vector<Metric>* out) {
  uint64_t sink = 0;

  // Distance kernel: one prepared matcher per probe over the stored side.
  double kernel_ns = 0;
  if (!in.probe_phonemes.empty() && !in.stored_phonemes.empty()) {
    constexpr uint64_t kPairs = 2000000;
    mural::DistanceStats stats;
    uint64_t pairs = 0;
    const uint64_t span = tracer->Begin("BoundedMyersMatcher::Distance");
    for (size_t p = 0; pairs < kPairs; p = (p + 1) % in.probe_phonemes.size()) {
      mural::BoundedMyersMatcher matcher(in.probe_phonemes[p], kThreshold);
      for (const std::string& stored : in.stored_phonemes) {
        sink += static_cast<uint64_t>(matcher.Distance(stored, &stats));
        if (++pairs == kPairs) break;
      }
    }
    kernel_ns = static_cast<double>(tracer->End(span)) /
                static_cast<double>(pairs);
  }
  out->push_back({"distance.kernel_ns_per_pair", kernel_ns, "ns"});

  // G2P: uncached transforms of the names the workload converts.
  double g2p_us = 0;
  if (!in.g2p_names.empty()) {
    const size_t n = std::min<size_t>(in.g2p_names.size(), 2000);
    const mural::PhoneticTransformer& g2p =
        mural::PhoneticTransformer::Default();
    const uint64_t span = tracer->Begin("PhoneticTransformer::Transform");
    for (size_t i = 0; i < n; ++i) sink += g2p.Transform(in.g2p_names[i]).size();
    g2p_us = static_cast<double>(tracer->End(span)) / 1e3 /
             static_cast<double>(n);
  }
  out->push_back({"phonetic.g2p_us_per_name", g2p_us, "us"});

  // Storage and tuple decode on the workload's main table.
  double heap_ms = 0, peek_ns = 0;
  auto table = db->catalog()->GetTable(in.table);
  if (table.ok()) {
    const mural::TableInfo& info = **table;
    std::vector<std::string> records;
    for (auto it = info.heap->Begin(); it.Valid(); it.Next()) {
      records.push_back(it.record());
    }
    std::vector<double> scans;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t span = tracer->Begin("HeapFile::Iterator");
      for (auto it = info.heap->Begin(); it.Valid(); it.Next()) {
        sink += it.record().size();
      }
      scans.push_back(static_cast<double>(tracer->End(span)) / 1e6);
    }
    heap_ms = Median(scans);
    const int col = info.schema.IndexOf(in.unitext_column);
    if (col >= 0 && !records.empty()) {
      constexpr size_t kPeeks = 400000;
      size_t peeks = 0;
      mural::UniTextColumnView view;
      const uint64_t span = tracer->Begin("TupleCodec::PeekUniText");
      while (peeks < kPeeks) {
        for (const std::string& rec : records) {
          if (mural::TupleCodec::PeekUniText(info.schema, rec,
                                             static_cast<size_t>(col), &view)
                  .ok()) {
            sink += view.text.size();
          }
          ++peeks;
        }
      }
      peek_ns = static_cast<double>(tracer->End(span)) /
                static_cast<double>(peeks);
    }
  }
  out->push_back({"storage.heap_scan_ms", heap_ms, "ms"});
  out->push_back({"catalog.peek_ns_per_row", peek_ns, "ns"});

  // B-tree point searches.
  double btree_us = 0;
  if (!in.btree_index.empty() && !in.btree_keys.empty()) {
    auto index = db->catalog()->GetIndex(in.btree_index);
    if (index.ok()) {
      std::vector<mural::Rid> rids;
      const uint64_t span = tracer->Begin("BTreeIndex::SearchEqual");
      for (const int32_t key : in.btree_keys) {
        rids.clear();
        if ((*index)->index->SearchEqual(mural::Value::Int32(key), &rids)
                .ok()) {
          sink += rids.size();
        }
      }
      btree_us = static_cast<double>(tracer->End(span)) / 1e3 /
                 static_cast<double>(in.btree_keys.size());
    }
  }
  out->push_back({"index.btree.search_us", btree_us, "us"});

  // Taxonomy closures of the workload's SemEQUAL roots.
  double closure_ms = 0;
  if (!in.closure_roots.empty() && in.taxonomy != nullptr) {
    const size_t n = std::min<size_t>(in.closure_roots.size(), 100);
    const uint64_t span = tracer->Begin("Taxonomy::TransitiveClosure");
    for (size_t i = 0; i < n; ++i) {
      sink += in.taxonomy->TransitiveClosure(in.closure_roots[i]).size();
    }
    closure_ms = static_cast<double>(tracer->End(span)) / 1e6 /
                 static_cast<double>(n);
  }
  out->push_back({"taxonomy.closure_ms", closure_ms, "ms"});
  g_sink = g_sink + sink;
}

}  // namespace murald_bench
