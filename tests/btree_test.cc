// Tests for the B+Tree: correctness against a std::multimap reference
// under random workloads, split behaviour, bulk loading, range scans, the
// Value-keyed adapter, and the MDI candidate-set guarantee.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "index/btree.h"
#include "index/key_codec.h"
#include "index/mdi.h"
#include "phonetic/phoneme.h"
#include "storage/disk_manager.h"

namespace mural {
namespace {

Rid MakeRid(uint32_t n) { return Rid{n, static_cast<SlotId>(n % 7)}; }

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 256) {}
  MemoryDiskManager disk_;
  BufferPool pool_;
};

// Leaf and internal records decode through the latching Decoder: each
// round-trips unchanged through a scan, and every strict prefix of one
// surfaces as Corruption from the scan that reads it.
TEST_F(BTreeTest, RecordsRoundTripAndTruncationsAreCorruption) {
  // 3 entries stay in a root leaf; 300 ~60-byte entries overflow one
  // 8 KiB page, so the root becomes internal.
  for (const int n : {3, 300}) {
    std::vector<std::pair<std::string, Rid>> entries;
    for (int i = 0; i < n; ++i) {
      entries.push_back({"key-" + std::to_string(1000 + i) +
                             std::string(48, static_cast<char>('a' + i % 26)),
                         MakeRid(static_cast<uint32_t>(i))});
    }
    auto tree = BTree::Create(&pool_);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree->BulkLoad(entries).ok());
    EXPECT_EQ(tree->height(), n == 3 ? 1u : 2u);
    std::vector<std::pair<std::string, Rid>> scanned;
    ASSERT_TRUE(tree->Scan("", "", true, [&](std::string_view k, Rid r) {
      scanned.emplace_back(std::string(k), r);
      return true;
    }).ok());
    EXPECT_EQ(scanned, entries);  // built in key order already

    std::string record;
    {
      auto root = pool_.Fetch(tree->root());
      ASSERT_TRUE(root.ok());
      auto rec = (*root)->Get((*root)->NumSlots() - 1);
      ASSERT_TRUE(rec.ok());
      record = rec->ToString();
    }
    for (size_t cut = 0; cut < record.size(); ++cut) {
      auto fresh = BTree::Create(&pool_);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(fresh->BulkLoad(entries).ok());
      {
        auto root = pool_.FetchForWrite(fresh->root());
        ASSERT_TRUE(root.ok());
        ASSERT_TRUE((*root)
                        ->Update((*root)->NumSlots() - 1,
                                 Slice(record.data(), cut))
                        .ok());
        root->MarkDirty();
      }
      const Status st =
          fresh->Scan("", "", true, [](std::string_view, Rid) { return true; });
      EXPECT_TRUE(st.IsCorruption())
          << "n=" << n << " cut=" << cut << ": " << st.ToString();
    }
  }
}

TEST_F(BTreeTest, EmptyTreeScansNothing) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  int count = 0;
  ASSERT_TRUE(tree->Scan("", "", true, [&](std::string_view, Rid) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(tree->height(), 1u);
}

TEST_F(BTreeTest, InsertAndPointLookup) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert("banana", MakeRid(1)).ok());
  ASSERT_TRUE(tree->Insert("apple", MakeRid(2)).ok());
  ASSERT_TRUE(tree->Insert("cherry", MakeRid(3)).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(tree->Scan("", "", true, [&](std::string_view k, Rid) {
    keys.emplace_back(k);
    return true;
  }).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
}

TEST_F(BTreeTest, DuplicateKeysAllReturned) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree->Insert("dup", MakeRid(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree->Scan("dup", "dup", false, [&](std::string_view, Rid) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 10);
}

TEST_F(BTreeTest, RandomWorkloadMatchesMultimap) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  Rng rng(4242);
  std::multimap<std::string, uint32_t> reference;
  for (uint32_t i = 0; i < 5000; ++i) {
    std::string key;
    const size_t len = 1 + rng.Uniform(20);
    for (size_t j = 0; j < len; ++j) {
      key.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    reference.emplace(key, i);
    ASSERT_TRUE(tree->Insert(key, MakeRid(i)).ok());
  }
  EXPECT_EQ(tree->num_entries(), 5000u);
  EXPECT_GT(tree->height(), 1u);

  // Full scan ordering + content.
  std::vector<std::pair<std::string, uint32_t>> scanned;
  ASSERT_TRUE(tree->Scan("", "", true, [&](std::string_view k, Rid r) {
    scanned.emplace_back(std::string(k), r.page);
    return true;
  }).ok());
  ASSERT_EQ(scanned.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i].first, it->first) << i;
  }

  // Random range scans agree with the reference.
  for (int probe = 0; probe < 50; ++probe) {
    std::string lo(1, static_cast<char>('a' + rng.Uniform(6)));
    std::string hi = lo + std::string(1, static_cast<char>('a' + 5));
    if (lo > hi) std::swap(lo, hi);
    std::multiset<uint32_t> expect;
    for (auto jt = reference.lower_bound(lo);
         jt != reference.end() && jt->first <= hi; ++jt) {
      expect.insert(jt->second);
    }
    std::multiset<uint32_t> got;
    ASSERT_TRUE(tree->Scan(lo, hi, false, [&](std::string_view, Rid r) {
      got.insert(r.page);
      return true;
    }).ok());
    EXPECT_EQ(got, expect) << lo << ".." << hi;
  }
}

TEST_F(BTreeTest, EarlyTerminationStopsScan) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree->Insert("k" + std::to_string(1000 + i), MakeRid(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree->Scan("", "", true, [&](std::string_view, Rid) {
    return ++count < 5;
  }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(BTreeTest, BulkLoadEqualsIncrementalContent) {
  Rng rng(7);
  std::vector<std::pair<std::string, Rid>> entries;
  for (uint32_t i = 0; i < 3000; ++i) {
    entries.emplace_back("key" + std::to_string(rng.Uniform(100000)),
                         MakeRid(i));
  }
  auto bulk = BTree::Create(&pool_);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(bulk->BulkLoad(entries).ok());
  EXPECT_EQ(bulk->num_entries(), entries.size());

  auto incr = BTree::Create(&pool_);
  ASSERT_TRUE(incr.ok());
  for (const auto& [k, r] : entries) ASSERT_TRUE(incr->Insert(k, r).ok());

  std::vector<std::string> a, b;
  ASSERT_TRUE(bulk->Scan("", "", true, [&](std::string_view k, Rid) {
    a.emplace_back(k);
    return true;
  }).ok());
  ASSERT_TRUE(incr->Scan("", "", true, [&](std::string_view k, Rid) {
    b.emplace_back(k);
    return true;
  }).ok());
  EXPECT_EQ(a, b);
  // Bulk load packs tighter or equal.
  EXPECT_LE(bulk->num_pages(), incr->num_pages());
}

TEST_F(BTreeTest, RejectsOversizedKeys) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->Insert(std::string(kPageSize, 'k'), MakeRid(0)).ok());
}

// ----------------------------------------------------------- Value keys

TEST_F(BTreeTest, ValueKeyedIndexOrdersNumerically) {
  auto index = BTreeIndex::Create(&pool_);
  ASSERT_TRUE(index.ok());
  // Negative and positive ints must order correctly via the key codec.
  for (int v : {5, -3, 0, 42, -100, 7}) {
    ASSERT_TRUE((*index)->Insert(Value::Int32(v), MakeRid(v + 200)).ok());
  }
  std::vector<Rid> rids;
  ASSERT_TRUE(
      (*index)->SearchRange(Value::Int32(-3), Value::Int32(7), &rids).ok());
  std::vector<uint32_t> pages;
  for (Rid r : rids) pages.push_back(r.page);
  EXPECT_EQ(pages, (std::vector<uint32_t>{197, 200, 205, 207}));
}

TEST_F(BTreeTest, ValueKeyedIndexDoubleOrdering) {
  auto index = BTreeIndex::Create(&pool_);
  ASSERT_TRUE(index.ok());
  int tag = 0;
  for (double v : {1.5, -2.25, 0.0, 3.0, -0.5}) {
    ASSERT_TRUE((*index)->Insert(Value::Float64(v), MakeRid(tag++)).ok());
  }
  std::vector<Rid> rids;
  ASSERT_TRUE((*index)
                  ->SearchRange(Value::Float64(-1.0), Value::Float64(2.0),
                                &rids)
                  .ok());
  // Expect -0.5 (tag 4), 0.0 (tag 2), 1.5 (tag 0) in that order.
  ASSERT_EQ(rids.size(), 3u);
  EXPECT_EQ(rids[0].page, 4u);
  EXPECT_EQ(rids[1].page, 2u);
  EXPECT_EQ(rids[2].page, 0u);
}

TEST_F(BTreeTest, NullKeysRejected) {
  auto index = BTreeIndex::Create(&pool_);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Insert(Value::Null(), MakeRid(0)).IsInvalidArgument());
}

// ------------------------------------------------------------------ MDI

std::string RandomPhonemes(Rng* rng, size_t max_len) {
  const size_t len = 1 + rng->Uniform(max_len);
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(phoneme::kAlphabet[rng->Uniform(phoneme::kAlphabet.size())]);
  }
  return s;
}

TEST_F(BTreeTest, MdiCandidatesHaveNoFalseNegatives) {
  auto mdi = MdiIndex::Create(&pool_);
  ASSERT_TRUE(mdi.ok());
  Rng rng(11);
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < 500; ++i) {
    keys.push_back(RandomPhonemes(&rng, 12));
    ASSERT_TRUE((*mdi)->Insert(Value::Text(keys.back()), MakeRid(i)).ok());
  }
  for (int probe = 0; probe < 30; ++probe) {
    const std::string q = RandomPhonemes(&rng, 12);
    for (int k : {0, 1, 2, 3}) {
      std::vector<Rid> candidates;
      ASSERT_TRUE((*mdi)->SearchWithin(Value::Text(q), k, &candidates).ok());
      std::set<uint32_t> cand_pages;
      for (Rid r : candidates) cand_pages.insert(r.page);
      for (uint32_t i = 0; i < keys.size(); ++i) {
        if (Levenshtein(keys[i], q) <= k) {
          EXPECT_TRUE(cand_pages.count(i))
              << "missing true match " << keys[i] << " for " << q
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(BTreeTest, MdiPrunesSomething) {
  auto mdi = MdiIndex::Create(&pool_);
  ASSERT_TRUE(mdi.ok());
  Rng rng(13);
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        (*mdi)->Insert(Value::Text(RandomPhonemes(&rng, 16)), MakeRid(i))
            .ok());
  }
  std::vector<Rid> candidates;
  ASSERT_TRUE(
      (*mdi)->SearchWithin(Value::Text("abc"), 1, &candidates).ok());
  // Short query vs mostly longer strings: the distance-to-pivot band must
  // exclude a decent share of the data.
  EXPECT_LT(candidates.size(), 1000u);
}

TEST_F(BTreeTest, MdiEmptyIndexReturnsNothing) {
  auto mdi = MdiIndex::Create(&pool_);
  ASSERT_TRUE(mdi.ok());
  std::vector<Rid> candidates;
  ASSERT_TRUE((*mdi)->SearchWithin(Value::Text("abc"), 2, &candidates).ok());
  EXPECT_TRUE(candidates.empty());
}

}  // namespace
}  // namespace mural
