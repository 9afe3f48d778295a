// GiST: a Generalized Search Tree in the spirit of Hellerstein, Naughton &
// Pfeffer (VLDB'95), which PostgreSQL exposes and through which the paper
// implements its M-Tree metric index (§4.2.1).
//
// The framework manages a height-balanced tree of 8 KiB nodes; the key
// semantics (when can a subtree match, how keys union, where an entry
// prefers to live, how an overflowing node splits) are delegated to a
// GistOps strategy object.  Keys are opaque byte strings to the framework.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace mural {

/// One tree entry: an opaque key plus either a child pointer (internal
/// nodes) or a heap rid (leaves).
struct GistEntry {
  std::string key;
  PageId child = kInvalidPage;
  Rid rid;
};

/// Query predicate handed to GistOps::Consistent.  `key` is the query
/// object in the ops' own key encoding; `radius` parameterizes distance
/// queries (metric ops) and is ignored by ops that do not need it.
struct GistQuery {
  std::string key;
  int radius = 0;
};

/// Extension interface: the four classic GiST methods.
class GistOps {
 public:
  virtual ~GistOps() = default;

  /// May the subtree/leaf described by `entry.key` contain a match?
  /// False positives are allowed (cost), false negatives are not
  /// (correctness).
  virtual bool Consistent(const GistEntry& entry, const GistQuery& query,
                          bool is_leaf) const = 0;

  /// A key covering all of `entries` (the parent entry's key).
  virtual std::string Union(const std::vector<GistEntry>& entries) const = 0;

  /// Cost of routing `new_key` into the subtree summarized by
  /// `subtree_key`; insertion descends into the minimum-penalty child.
  virtual double Penalty(std::string_view subtree_key,
                         std::string_view new_key) const = 0;

  /// Partitions `entries` (which overflow one node) into two non-empty
  /// groups.  Implementations may reorder but not drop entries.
  virtual void PickSplit(std::vector<GistEntry> entries,
                         std::vector<GistEntry>* left,
                         std::vector<GistEntry>* right) const = 0;
};

/// Search-effort counters (the M-Tree pruning-efficiency ablation reads
/// these).
struct GistStats {
  uint64_t nodes_visited = 0;
  uint64_t leaf_entries_tested = 0;
  uint64_t internal_entries_tested = 0;
  uint64_t inserts = 0;
  uint64_t splits = 0;

  void Reset() { *this = GistStats(); }
};

/// The balanced tree manager.
class GistTree {
 public:
  /// Creates an empty tree; `ops` must outlive the tree.
  [[nodiscard]]
  static StatusOr<GistTree> Create(BufferPool* pool, const GistOps* ops);

  /// Inserts a (key, rid) pair.
  [[nodiscard]] Status Insert(std::string key, Rid rid);

  /// Calls `fn` for every leaf entry consistent with `query`; traversal
  /// prunes subtrees whose entries are not Consistent.
  [[nodiscard]] Status Search(const GistQuery& query,
                const std::function<void(const GistEntry&)>& fn) const;

  uint64_t num_entries() const { return num_entries_; }
  uint32_t num_pages() const { return num_pages_; }
  uint32_t height() const { return height_; }
  PageId root() const { return root_; }
  GistStats& stats() const { return stats_; }

 private:
  GistTree(BufferPool* pool, const GistOps* ops, PageId root)
      : pool_(pool), ops_(ops), root_(root) {}

  struct SplitResult {
    bool split = false;
    std::string left_union;
    std::string right_union;
    PageId right = kInvalidPage;
  };

  [[nodiscard]]
  Status InsertRec(PageId node, GistEntry entry, uint16_t target_level,
                   SplitResult* out, std::string* new_union);
  [[nodiscard]]
  Status SplitNode(WritePageGuard* guard, std::vector<GistEntry> entries,
                   SplitResult* out);

  BufferPool* pool_;
  const GistOps* ops_;
  PageId root_;
  uint64_t num_entries_ = 0;
  uint32_t num_pages_ = 1;
  uint32_t height_ = 1;
  mutable GistStats stats_;
};

}  // namespace mural
