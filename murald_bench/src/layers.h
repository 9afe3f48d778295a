// The traced run's instruments: an in-memory span recorder, registry
// counter snapshots, the in-process layer-by-layer replay and the
// single-layer probes.  Spans wrap the benchmark's own calls into each
// module's public functions; nothing inside the engine is instrumented.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads.h"

namespace murald_bench {

/// A named measurement with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out once, when the run ends.  Spans
/// of one statement share its span as parent.
class Tracer {
 public:
  /// Opens a span; returns its id (ids start at 1; 0 = no parent).
  uint64_t Begin(const char* name, uint64_t parent = 0);
  /// Closes span `id`; returns its duration in nanoseconds.
  int64_t End(uint64_t id);
  /// Records an already-timed span.
  void Add(const char* name, uint64_t parent, int64_t start_ns,
           int64_t end_ns);
  /// Every span as a JSON array.
  std::string Json() const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Values of the registry counters the per-layer metrics difference.
using CounterSnapshot = std::map<std::string, uint64_t>;
CounterSnapshot SnapshotCounters();

/// Per-layer metrics read from counter deltas over `statements` wire
/// statements.
void CounterMetrics(const CounterSnapshot& before,
                    const CounterSnapshot& after, size_t statements,
                    std::vector<Metric>* out);

/// Replays the workload's next statements in-process on a new Session, one
/// public call per layer (parse, bind, plan, execute), for up to
/// `budget_s` seconds.  Every replayed result is checked against the
/// oracle; mismatches are added to `*failed`.
void ReplayLayers(Workload* workload, mural::Database* db, double budget_s,
                  Tracer* tracer, std::vector<Metric>* out, size_t* attempted,
                  size_t* failed);

/// Times single-layer public functions on the workload's own data:
/// the distance kernel, G2P, tuple peeks, a heap scan, B-tree searches
/// and taxonomy closures.  A layer the workload does not use reads 0.
void ProbeLayers(const LayerInputs& in, mural::Database* db, Tracer* tracer,
                 std::vector<Metric>* out);

}  // namespace murald_bench
