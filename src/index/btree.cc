#include "index/btree.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace mural {

namespace {

struct LeafEntry {
  std::string key;
  Rid rid;
};

struct InternalEntry {
  std::string key;  // separator; "" = -infinity for the first entry
  PageId child;
};

std::string EncodeLeaf(std::string_view key, Rid rid) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(key.size()));
  out.append(key.data(), key.size());
  PutU32(&out, rid.page);
  PutU16(&out, rid.slot);
  return out;
}

std::string EncodeInternal(std::string_view key, PageId child) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(key.size()));
  out.append(key.data(), key.size());
  PutU32(&out, child);
  return out;
}

Status DecodeLeaf(Slice record, LeafEntry* out) {
  Decoder dec(record.ToStringView());
  out->key = dec.LengthPrefixed();
  out->rid.page = dec.U32();
  out->rid.slot = dec.U16();
  return dec.status();
}

Status DecodeInternal(Slice record, InternalEntry* out) {
  Decoder dec(record.ToStringView());
  out->key = dec.LengthPrefixed();
  out->child = dec.U32();
  return dec.status();
}

Status ReadLeafEntries(const Page* page, std::vector<LeafEntry>* out) {
  out->clear();
  out->reserve(page->NumSlots());
  for (SlotId s = 0; s < page->NumSlots(); ++s) {
    MURAL_ASSIGN_OR_RETURN(const Slice rec, page->Get(s));
    LeafEntry e;
    MURAL_RETURN_IF_ERROR(DecodeLeaf(rec, &e));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Status ReadInternalEntries(const Page* page, std::vector<InternalEntry>* out) {
  out->clear();
  out->reserve(page->NumSlots());
  for (SlotId s = 0; s < page->NumSlots(); ++s) {
    MURAL_ASSIGN_OR_RETURN(const Slice rec, page->Get(s));
    InternalEntry e;
    MURAL_RETURN_IF_ERROR(DecodeInternal(rec, &e));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Status WriteLeafEntries(Page* page, const std::vector<LeafEntry>& entries) {
  page->Clear();
  for (const LeafEntry& e : entries) {
    MURAL_RETURN_IF_ERROR(page->Insert(EncodeLeaf(e.key, e.rid)).status());
  }
  return Status::OK();
}

Status WriteInternalEntries(Page* page,
                            const std::vector<InternalEntry>& entries) {
  page->Clear();
  for (const InternalEntry& e : entries) {
    MURAL_RETURN_IF_ERROR(
        page->Insert(EncodeInternal(e.key, e.child)).status());
  }
  return Status::OK();
}

/// Index of the child covering `key` for inserts: last separator <= key.
size_t ChildIndexFor(const std::vector<InternalEntry>& entries,
                     std::string_view key) {
  // entries[0].key is "" (-inf): key >= "" always, so lo starts valid.
  size_t lo = 0;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].key <= key) {
      lo = i;
    } else {
      break;
    }
  }
  return lo;
}

/// Index of the child where a scan for keys >= `key` must start: last
/// separator strictly below `key`.  With duplicate keys a run equal to
/// `key` can span several children whose separators all equal `key`; the
/// <= rule would land past the first of them and silently skip matches.
size_t ChildIndexForScan(const std::vector<InternalEntry>& entries,
                         std::string_view key) {
  size_t lo = 0;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].key < key) {
      lo = i;
    } else {
      break;
    }
  }
  return lo;
}

constexpr size_t kMaxEntryBytes = kPageSize / 4;

}  // namespace

StatusOr<BTree> BTree::Create(BufferPool* pool) {
  MURAL_ASSIGN_OR_RETURN(WritePageGuard root, pool->NewPage());
  root->Init();
  root->set_level(0);
  root.MarkDirty();
  return BTree(pool, root.id());
}

Status BTree::Insert(std::string_view key, Rid rid) {
  if (key.size() > kMaxEntryBytes) {
    return Status::InvalidArgument("index key too large");
  }
  SplitResult split;
  MURAL_RETURN_IF_ERROR(InsertRec(root_, key, rid, &split));
  if (split.split) {
    // Grow a new root above the old one.
    MURAL_ASSIGN_OR_RETURN(ReadPageGuard old_root, pool_->Fetch(root_));
    const uint16_t old_level = old_root->level();
    old_root.Release();
    MURAL_ASSIGN_OR_RETURN(WritePageGuard new_root, pool_->NewPage());
    new_root->Init();
    new_root->set_level(static_cast<uint16_t>(old_level + 1));
    std::vector<InternalEntry> entries;
    entries.push_back({"", root_});
    entries.push_back({split.separator, split.right});
    MURAL_RETURN_IF_ERROR(WriteInternalEntries(new_root.get(), entries));
    new_root.MarkDirty();
    root_ = new_root.id();
    ++num_pages_;
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

Status BTree::InsertRec(PageId node, std::string_view key, Rid rid,
                        SplitResult* out) {
  out->split = false;
  // Both outcomes of this function rewrite `node` (leaf insert, or the
  // post-recursion separator insert), so take the exclusive latch up
  // front rather than upgrading mid-flight.
  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard, pool_->FetchForWrite(node));
  if (guard->level() == 0) {
    // Leaf: insert in sorted position; rewrite the node.
    std::vector<LeafEntry> entries;
    MURAL_RETURN_IF_ERROR(ReadLeafEntries(guard.get(), &entries));
    LeafEntry fresh{std::string(key), rid};
    auto pos = std::upper_bound(
        entries.begin(), entries.end(), fresh,
        [](const LeafEntry& a, const LeafEntry& b) { return a.key < b.key; });
    entries.insert(pos, std::move(fresh));

    // Measure fit: each entry costs its record plus one slot.
    size_t bytes = 0;
    for (const LeafEntry& e : entries) bytes += e.key.size() + 10 + 4;
    if (bytes <= kPageSize - 64) {
      MURAL_RETURN_IF_ERROR(WriteLeafEntries(guard.get(), entries));
      guard.MarkDirty();
      return Status::OK();
    }
    // Split in half.
    const size_t mid = entries.size() / 2;
    std::vector<LeafEntry> left(entries.begin(), entries.begin() + mid);
    std::vector<LeafEntry> right(entries.begin() + mid, entries.end());
    // lint: latch-exception(leaf split: the full leaf stays latched while the sibling is allocated, so readers never walk past a half-moved entry set)
    MURAL_ASSIGN_OR_RETURN(WritePageGuard sibling, pool_->NewPage());
    sibling->Init();
    sibling->set_level(0);
    sibling->set_next_page(guard->next_page());
    MURAL_RETURN_IF_ERROR(WriteLeafEntries(sibling.get(), right));
    sibling.MarkDirty();
    MURAL_RETURN_IF_ERROR(WriteLeafEntries(guard.get(), left));
    guard->set_next_page(sibling.id());
    guard.MarkDirty();
    ++num_pages_;
    out->split = true;
    out->separator = right.front().key;
    out->right = sibling.id();
    return Status::OK();
  }

  // Internal node: descend.
  std::vector<InternalEntry> entries;
  MURAL_RETURN_IF_ERROR(ReadInternalEntries(guard.get(), &entries));
  MURAL_CHECK(!entries.empty());
  const size_t child_idx = ChildIndexFor(entries, key);
  const PageId child = entries[child_idx].child;
  const uint16_t level = guard->level();
  guard.Release();  // avoid holding pins across the recursive descent

  SplitResult child_split;
  MURAL_RETURN_IF_ERROR(InsertRec(child, key, rid, &child_split));
  if (!child_split.split) return Status::OK();

  // Re-fetch and add the new separator.
  MURAL_ASSIGN_OR_RETURN(guard, pool_->FetchForWrite(node));
  MURAL_CHECK(guard->level() == level);
  MURAL_RETURN_IF_ERROR(ReadInternalEntries(guard.get(), &entries));
  InternalEntry fresh{child_split.separator, child_split.right};
  auto pos = std::upper_bound(entries.begin(), entries.end(), fresh,
                              [](const InternalEntry& a,
                                 const InternalEntry& b) {
                                return a.key < b.key;
                              });
  entries.insert(pos, std::move(fresh));
  size_t bytes = 0;
  for (const InternalEntry& e : entries) bytes += e.key.size() + 8 + 4;
  if (bytes <= kPageSize - 64) {
    MURAL_RETURN_IF_ERROR(WriteInternalEntries(guard.get(), entries));
    guard.MarkDirty();
    return Status::OK();
  }
  // Split the internal node: the middle separator moves up.
  const size_t mid = entries.size() / 2;
  std::vector<InternalEntry> left(entries.begin(), entries.begin() + mid);
  std::vector<InternalEntry> right(entries.begin() + mid, entries.end());
  out->split = true;
  out->separator = right.front().key;
  right.front().key = "";  // becomes the -infinity entry of the new node
  MURAL_ASSIGN_OR_RETURN(WritePageGuard sibling, pool_->NewPage());
  sibling->Init();
  sibling->set_level(guard->level());
  MURAL_RETURN_IF_ERROR(WriteInternalEntries(sibling.get(), right));
  sibling.MarkDirty();
  MURAL_RETURN_IF_ERROR(WriteInternalEntries(guard.get(), left));
  guard.MarkDirty();
  ++num_pages_;
  out->right = sibling.id();
  return Status::OK();
}

Status BTree::Scan(
    std::string_view lo, std::string_view hi, bool unbounded_hi,
    const std::function<bool(std::string_view key, Rid rid)>& fn) const {
  // Descend to the leaf that may contain `lo`.
  PageId node = root_;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool_->Fetch(node));
    if (guard->level() == 0) break;
    std::vector<InternalEntry> entries;
    MURAL_RETURN_IF_ERROR(ReadInternalEntries(guard.get(), &entries));
    MURAL_CHECK(!entries.empty());
    node = entries[ChildIndexForScan(entries, lo)].child;
  }
  // Walk the leaf chain.
  while (node != kInvalidPage) {
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool_->Fetch(node));
    std::vector<LeafEntry> entries;
    MURAL_RETURN_IF_ERROR(ReadLeafEntries(guard.get(), &entries));
    for (const LeafEntry& e : entries) {
      if (std::string_view(e.key) < lo) continue;
      if (!unbounded_hi && std::string_view(e.key) > hi) return Status::OK();
      if (!fn(e.key, e.rid)) return Status::OK();
    }
    node = guard->next_page();
  }
  return Status::OK();
}

Status BTree::BulkLoad(std::vector<std::pair<std::string, Rid>> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Build the leaf level left-to-right at ~90% fill.
  const size_t kFillLimit = (kPageSize * 9) / 10;
  struct Built {
    PageId page;
    std::string first_key;
  };
  std::vector<Built> level_nodes;

  MURAL_ASSIGN_OR_RETURN(WritePageGuard leaf, pool_->NewPage());
  leaf->Init();
  leaf->set_level(0);
  num_pages_ = 1;
  num_entries_ = 0;
  height_ = 1;
  size_t used = 0;
  std::string first_key;
  bool first_in_leaf = true;
  for (const auto& [key, rid] : entries) {
    if (key.size() > kMaxEntryBytes) {
      return Status::InvalidArgument("index key too large");
    }
    const std::string rec = EncodeLeaf(key, rid);
    if (!first_in_leaf && used + rec.size() + 4 > kFillLimit) {
      level_nodes.push_back({leaf.id(), first_key});
      // lint: latch-exception(bulk load: the filled leaf stays latched while its successor is allocated so next_page links atomically)
      MURAL_ASSIGN_OR_RETURN(WritePageGuard next, pool_->NewPage());
      next->Init();
      next->set_level(0);
      leaf->set_next_page(next.id());
      leaf.MarkDirty();
      leaf = std::move(next);
      ++num_pages_;
      used = 0;
      first_in_leaf = true;
    }
    if (first_in_leaf) {
      first_key = key;
      first_in_leaf = false;
    }
    MURAL_RETURN_IF_ERROR(leaf->Insert(rec).status());
    used += rec.size() + 4;
    ++num_entries_;
  }
  leaf.MarkDirty();
  level_nodes.push_back({leaf.id(), first_key});
  leaf.Release();

  // Build internal levels until a single root remains.
  uint16_t level = 1;
  while (level_nodes.size() > 1) {
    std::vector<Built> next_level;
    size_t i = 0;
    while (i < level_nodes.size()) {
      MURAL_ASSIGN_OR_RETURN(WritePageGuard node, pool_->NewPage());
      node->Init();
      node->set_level(level);
      ++num_pages_;
      size_t node_used = 0;
      std::string node_first;
      bool first = true;
      while (i < level_nodes.size()) {
        const std::string sep = first ? "" : level_nodes[i].first_key;
        const std::string rec = EncodeInternal(sep, level_nodes[i].page);
        if (!first && node_used + rec.size() + 4 > kFillLimit) break;
        MURAL_RETURN_IF_ERROR(node->Insert(rec).status());
        node_used += rec.size() + 4;
        if (first) node_first = level_nodes[i].first_key;
        first = false;
        ++i;
      }
      node.MarkDirty();
      next_level.push_back({node.id(), node_first});
    }
    level_nodes = std::move(next_level);
    ++level;
    ++height_;
  }
  root_ = level_nodes.front().page;
  return Status::OK();
}

StatusOr<std::unique_ptr<BTreeIndex>> BTreeIndex::Create(BufferPool* pool) {
  MURAL_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool));
  return std::unique_ptr<BTreeIndex>(new BTreeIndex(std::move(tree)));
}

Status BTreeIndex::Insert(const Value& key, Rid rid) {
  MURAL_ASSIGN_OR_RETURN(const std::string k, KeyCodec::Encode(key));
  return tree_.Insert(k, rid);
}

Status BTreeIndex::SearchEqual(const Value& key, std::vector<Rid>* out) {
  static Counter* probes =
      MetricsRegistry::Global().GetCounter("index.btree.probes");
  probes->Increment();
  MURAL_ASSIGN_OR_RETURN(const std::string k, KeyCodec::Encode(key));
  return tree_.Scan(k, k, /*unbounded_hi=*/false,
                    [out](std::string_view, Rid rid) {
                      out->push_back(rid);
                      return true;
                    });
}

Status BTreeIndex::SearchRange(const Value& lo, const Value& hi,
                               std::vector<Rid>* out) {
  static Counter* probes =
      MetricsRegistry::Global().GetCounter("index.btree.probes");
  probes->Increment();
  std::string klo;
  if (!lo.is_null()) {
    MURAL_ASSIGN_OR_RETURN(klo, KeyCodec::Encode(lo));
  }
  std::string khi;
  const bool unbounded_hi = hi.is_null();
  if (!unbounded_hi) {
    MURAL_ASSIGN_OR_RETURN(khi, KeyCodec::Encode(hi));
  }
  return tree_.Scan(klo, khi, unbounded_hi,
                    [out](std::string_view, Rid rid) {
                      out->push_back(rid);
                      return true;
                    });
}

}  // namespace mural
