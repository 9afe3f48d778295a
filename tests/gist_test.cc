// Tests for the GiST framework itself, instantiated with a second,
// deliberately simple extension: 1-D integer intervals (an R-Tree-style
// key).  This proves the framework is genuinely generic — the paper's
// architectural point about building the M-Tree *through* GiST rather
// than welding it into the engine — and pins down framework behaviour
// (balanced growth, adjust-keys on the insert path, split propagation)
// with keys whose semantics are easy to verify by brute force.

#include <gtest/gtest.h>

#include <set>

#include "common/coding.h"
#include "common/random.h"
#include "index/gist.h"
#include "storage/disk_manager.h"

namespace mural {
namespace {

// Keys: [lo, hi] closed intervals; leaf entries carry points (lo == hi).
// Query: GistQuery{key = point encoded, radius ignored}: "contains point".
struct IntervalOps : public GistOps {
  static std::string Make(int32_t lo, int32_t hi) {
    std::string key;
    PutU32(&key, static_cast<uint32_t>(lo));
    PutU32(&key, static_cast<uint32_t>(hi));
    return key;
  }
  static std::pair<int32_t, int32_t> Parse(std::string_view key) {
    Decoder dec(key);
    const uint32_t lo = dec.U32();
    const uint32_t hi = dec.U32();
    return {static_cast<int32_t>(lo), static_cast<int32_t>(hi)};
  }

  bool Consistent(const GistEntry& entry, const GistQuery& query,
                  bool) const override {
    const auto [lo, hi] = Parse(entry.key);
    const auto [qlo, qhi] = Parse(query.key);
    return qlo <= hi && lo <= qhi;  // interval overlap
  }
  std::string Union(const std::vector<GistEntry>& entries) const override {
    int32_t lo = INT32_MAX, hi = INT32_MIN;
    for (const GistEntry& e : entries) {
      const auto [elo, ehi] = Parse(e.key);
      lo = std::min(lo, elo);
      hi = std::max(hi, ehi);
    }
    return Make(lo, hi);
  }
  double Penalty(std::string_view subtree_key,
                 std::string_view new_key) const override {
    const auto [slo, shi] = Parse(subtree_key);
    const auto [nlo, nhi] = Parse(new_key);
    const int32_t grown =
        std::max(shi, nhi) - std::min(slo, nlo) - (shi - slo);
    return static_cast<double>(grown);
  }
  void PickSplit(std::vector<GistEntry> entries,
                 std::vector<GistEntry>* left,
                 std::vector<GistEntry>* right) const override {
    // Sort by lo and cut in half — the classic linear split.
    std::sort(entries.begin(), entries.end(),
              [](const GistEntry& a, const GistEntry& b) {
                return Parse(a.key).first < Parse(b.key).first;
              });
    const size_t mid = entries.size() / 2;
    left->assign(std::make_move_iterator(entries.begin()),
                 std::make_move_iterator(entries.begin() + mid));
    right->assign(std::make_move_iterator(entries.begin() + mid),
                  std::make_move_iterator(entries.end()));
  }
};

class GistTest : public ::testing::Test {
 protected:
  GistTest() : pool_(&disk_, 256) {}
  MemoryDiskManager disk_;
  BufferPool pool_;
  IntervalOps ops_;
};

TEST_F(GistTest, EmptyTreeFindsNothing) {
  auto tree = GistTree::Create(&pool_, &ops_);
  ASSERT_TRUE(tree.ok());
  int hits = 0;
  GistQuery query;
  query.key = IntervalOps::Make(0, 100);
  ASSERT_TRUE(tree->Search(query, [&](const GistEntry&) { ++hits; }).ok());
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(tree->height(), 1u);
}

// Leaf and internal entries decode through the latching Decoder: each
// round-trips unchanged through a search, and every strict prefix of a
// root entry surfaces as Corruption from the search that reads it.
TEST_F(GistTest, EntriesRoundTripAndTruncationsAreCorruption) {
  // 3 points stay in a root leaf; 800 overflow one node, so the root
  // becomes internal.
  for (const uint32_t n : {3u, 800u}) {
    auto build = [&]() -> StatusOr<GistTree> {
      MURAL_ASSIGN_OR_RETURN(GistTree tree, GistTree::Create(&pool_, &ops_));
      for (uint32_t i = 0; i < n; ++i) {
        const auto p = static_cast<int32_t>(i * 7);
        MURAL_RETURN_IF_ERROR(tree.Insert(IntervalOps::Make(p, p),
                                          Rid{i, static_cast<SlotId>(i % 5)}));
      }
      return tree;
    };
    GistQuery everything;
    everything.key = IntervalOps::Make(INT32_MIN, INT32_MAX);
    auto tree = build();
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->height() > 1, n > 3);
    std::set<uint32_t> seen;
    ASSERT_TRUE(tree->Search(everything, [&](const GistEntry& e) {
      EXPECT_EQ(e.key, IntervalOps::Make(static_cast<int32_t>(e.rid.page * 7),
                                         static_cast<int32_t>(e.rid.page * 7)));
      EXPECT_EQ(e.rid.slot, e.rid.page % 5);
      EXPECT_EQ(e.child, kInvalidPage);
      seen.insert(e.rid.page);
    }).ok());
    EXPECT_EQ(seen.size(), n);

    std::string record;
    {
      auto root = pool_.Fetch(tree->root());
      ASSERT_TRUE(root.ok());
      auto rec = (*root)->Get(0);
      ASSERT_TRUE(rec.ok());
      record = rec->ToString();
    }
    for (size_t cut = 0; cut < record.size(); ++cut) {
      auto fresh = build();
      ASSERT_TRUE(fresh.ok());
      {
        auto root = pool_.FetchForWrite(fresh->root());
        ASSERT_TRUE(root.ok());
        ASSERT_TRUE((*root)->Update(0, Slice(record.data(), cut)).ok());
        root->MarkDirty();
      }
      const Status st = fresh->Search(everything, [](const GistEntry&) {});
      EXPECT_TRUE(st.IsCorruption())
          << "n=" << n << " cut=" << cut << ": " << st.ToString();
    }
  }
}

TEST_F(GistTest, PointQueriesMatchBruteForce) {
  auto tree = GistTree::Create(&pool_, &ops_);
  ASSERT_TRUE(tree.ok());
  Rng rng(33);
  std::vector<int32_t> points;
  for (uint32_t i = 0; i < 5000; ++i) {
    const int32_t p = static_cast<int32_t>(rng.Uniform(10000));
    points.push_back(p);
    ASSERT_TRUE(tree->Insert(IntervalOps::Make(p, p), Rid{i, 0}).ok());
  }
  EXPECT_GT(tree->height(), 1u);  // must have split
  EXPECT_GT(tree->stats().splits, 0u);

  for (int probe = 0; probe < 30; ++probe) {
    const int32_t lo = static_cast<int32_t>(rng.Uniform(9000));
    const int32_t hi = lo + static_cast<int32_t>(rng.Uniform(500));
    std::multiset<uint32_t> expect;
    for (uint32_t i = 0; i < points.size(); ++i) {
      if (points[i] >= lo && points[i] <= hi) expect.insert(i);
    }
    std::multiset<uint32_t> got;
    GistQuery query;
    query.key = IntervalOps::Make(lo, hi);
    ASSERT_TRUE(tree->Search(query, [&](const GistEntry& e) {
      got.insert(e.rid.page);
    }).ok());
    EXPECT_EQ(got, expect) << "[" << lo << "," << hi << "]";
  }
}

TEST_F(GistTest, RangeQueriesPruneDisjointSubtrees) {
  auto tree = GistTree::Create(&pool_, &ops_);
  ASSERT_TRUE(tree.ok());
  // Two far-apart clusters.
  for (uint32_t i = 0; i < 2000; ++i) {
    const int32_t p = static_cast<int32_t>(i % 2 == 0 ? i : 1000000 + i);
    ASSERT_TRUE(tree->Insert(IntervalOps::Make(p, p), Rid{i, 0}).ok());
  }
  tree->stats().Reset();
  GistQuery query;
  query.key = IntervalOps::Make(0, 3000);
  int hits = 0;
  ASSERT_TRUE(tree->Search(query, [&](const GistEntry&) { ++hits; }).ok());
  EXPECT_EQ(hits, 1000);
  // With a selective query, far less than everything was tested.
  EXPECT_LT(tree->stats().leaf_entries_tested, 2000u);
}

TEST_F(GistTest, EntryCountersAndPagesGrow) {
  auto tree = GistTree::Create(&pool_, &ops_);
  ASSERT_TRUE(tree.ok());
  for (uint32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree->Insert(IntervalOps::Make(static_cast<int32_t>(i),
                                               static_cast<int32_t>(i)),
                             Rid{i, 0})
                    .ok());
  }
  EXPECT_EQ(tree->num_entries(), 3000u);
  EXPECT_GT(tree->num_pages(), 3u);
  EXPECT_EQ(tree->stats().inserts, 3000u);
}

TEST_F(GistTest, OversizedKeysRejected) {
  auto tree = GistTree::Create(&pool_, &ops_);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(
      tree->Insert(std::string(kPageSize, 'k'), Rid{0, 0}).ok());
}

}  // namespace
}  // namespace mural
