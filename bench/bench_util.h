// Shared helpers for the experiment harnesses: dataset loading, timing,
// and machine-readable result emission (BENCH_<name>.json, uploaded as a
// CI artifact so runs can be compared across commits).

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/catalog_generator.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "engine/database.h"
#include "session/session.h"

namespace mural {
namespace bench {

/// Accumulates (label, metric, value) result rows and writes them as
/// BENCH_<name>.json in the working directory when flushed or destroyed.
/// The human-readable printf tables stay the primary console output; this
/// is the machine-readable shadow so CI can diff runs across commits.
///
///   JsonReporter json("table4_lexequal");
///   json.Record("core_noidx", "scan_ms", 12.5);
///
/// Labels and metrics are ASCII identifiers chosen by the bench; quotes
/// and backslashes are escaped anyway so a stray label cannot corrupt the
/// document.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() { Flush(); }

  void Record(std::string label, std::string metric, double value) {
    rows_.push_back(Row{std::move(label), std::move(metric), value});
  }

  /// Writes BENCH_<name>.json; safe to call repeatedly (rewrites whole
  /// file).  Returns false if the file cannot be opened.
  bool Flush() {
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [",
                 Escape(bench_name_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"label\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %.6g}",
                   i == 0 ? "" : ",", Escape(rows_[i].label).c_str(),
                   Escape(rows_[i].metric).c_str(), rows_[i].value);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string label;
    std::string metric;
    double value;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';  // control chars have no business in a label
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Creates a database holding the multilingual `names(id, name)` table
/// with materialized phonemes, analyzed.  Size = bases * variants.
inline StatusOr<std::unique_ptr<Database>> MakeNamesDb(
    size_t bases, size_t variants, uint64_t seed,
    std::vector<NameRecord>* records_out = nullptr) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, /*mat=*/true}});
  MURAL_RETURN_IF_ERROR(db->CreateTable("names", schema));
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  std::vector<NameRecord> records = GenerateNames(options);
  for (const NameRecord& rec : records) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("names", {Value::Int32(static_cast<int32_t>(rec.id)),
                             Value::Uni(rec.name)}));
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("names"));
  if (records_out != nullptr) *records_out = std::move(records);
  return db;
}

/// Adds a second names table for join benches.
inline Status AddSecondNamesTable(Database* db, const char* table,
                                  size_t bases, size_t variants,
                                  uint64_t seed) {
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, /*mat=*/true}});
  MURAL_RETURN_IF_ERROR(db->CreateTable(table, schema));
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  for (const NameRecord& rec : GenerateNames(options)) {
    MURAL_RETURN_IF_ERROR(
        db->Insert(table, {Value::Int32(static_cast<int32_t>(rec.id)),
                           Value::Uni(rec.name)}));
  }
  return db->Analyze(table);
}

/// Median-of-runs wall-clock helper.
template <typename Fn>
double TimeMedianMs(int runs, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) {
    Timer timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

#define BENCH_CHECK_OK(expr)                                       \
  do {                                                             \
    const ::mural::Status _st = (expr);                            \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "FATAL: %s\n", _st.ToString().c_str()); \
      std::exit(1);                                                \
    }                                                              \
  } while (0)

/// Mints a session on `db` with the Database-default options; a failed
/// Connect ends the bench like BENCH_CHECK_OK.
inline std::unique_ptr<Session> MustConnect(Database* db) {
  StatusOr<std::unique_ptr<Session>> session = db->Connect();
  BENCH_CHECK_OK(session.status());
  return std::move(*session);
}

}  // namespace bench
}  // namespace mural
