// The benchmark's four workloads.  Each one owns its seeded datasets, its
// parameter pools, the statement stream the closed loop sends, and the
// oracle: every statement's expected response, computed without the
// engine and outside every timer.
//
// A seed changes values (names, probes, concepts, hot ids), never sizes
// or the mix of statement classes.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace murald_bench {

/// One statement of a stream and what the oracle says it must return.
struct Op {
  int cls = 0;          // index into Workload::classes()
  std::string sql;      // empty = the stream is exhausted
  /// The SELECT this statement runs (an EXECUTE's prepared body), or
  /// empty for statements without one (INSERT).  The traced run replays
  /// it layer by layer.
  std::string select_sql;
  /// Expected data lines, sorted; the server's lines are sorted before
  /// comparison.  Owned by the workload, valid until the next Next().
  const std::vector<std::string>* expected = nullptr;
};

/// Inputs the traced run hands to single-layer probes.
struct LayerInputs {
  std::string table;                      // main table of the workload
  std::string unitext_column;             // a UNITEXT column of it
  std::vector<mural::UniText> g2p_names;  // names the workload transforms
  std::vector<std::string> probe_phonemes;   // Psi probes (kernel pairs)
  std::vector<std::string> stored_phonemes;  // Psi stored side
  std::vector<int32_t> btree_keys;        // B-tree probes on `btree_index`
  std::string btree_index;
  const mural::Taxonomy* taxonomy = nullptr;   // the closure probe walks it
  std::vector<mural::SynsetId> closure_roots;  // SemEQUAL roots
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Names of the statement classes, in Op::cls order.
  virtual std::vector<std::string> classes() const = 0;

  /// Builds the seeded datasets, parameter pools and the oracle.  The
  /// benchmark's own work: never timed.
  virtual void Generate(uint64_t seed) = 0;
  /// Untimed preparation before each Load (inputs a load consumes).
  virtual void PrepareLoad() {}
  /// Loads the datasets through the engine's public API (timed set-up).
  virtual mural::Status Load(mural::Database* db) = 0;
  /// Statements sent once on a fresh connection before the warm-up.
  virtual std::vector<std::string> SessionStatements() const { return {}; }
  /// Statements of the fixed-count warm-up that ends every set-up.
  virtual size_t WarmupCount() const = 0;
  /// Untraced runs measure in this many segments, each behind its own
  /// set-up, and pool the samples.  Workloads whose statement cost
  /// depends on process state (which morsel and cache layout a set-up
  /// happened to get) average over more of those states.
  virtual int Segments() const { return 3; }

  /// Resets the state one set-up owns, before its warm-up.  The stream
  /// itself runs on across set-ups, so the segments of a run together
  /// send every parameter of the pool.
  virtual void NewSetUp() {}
  /// The next statement of the stream.
  virtual Op Next() = 0;

  /// One instance of every statement template, for the plan record:
  /// (template label, statement).  Only SELECTs: EXPLAIN needs one.
  virtual std::vector<std::pair<std::string, std::string>> Templates()
      const = 0;
  /// Labels of the templates that carry a LexEQUAL selection (the plan
  /// share metric counts how many of them run as the batch leaf).
  virtual std::vector<std::string> PsiTemplates() const { return {}; }

  virtual LayerInputs Layers() const = 0;
};

/// The workload named `name` (psi_scan, xling_join, semequal_scan,
/// oltp_point), or null when there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace murald_bench
