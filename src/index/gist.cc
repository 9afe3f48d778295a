#include "index/gist.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace mural {

namespace {

std::string EncodeEntry(const GistEntry& e) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(e.key.size()));
  out += e.key;
  PutU32(&out, e.child);
  PutU32(&out, e.rid.page);
  PutU16(&out, e.rid.slot);
  return out;
}

Status DecodeEntry(Slice record, GistEntry* out) {
  Decoder dec(record.ToStringView());
  out->key = dec.LengthPrefixed();
  out->child = dec.U32();
  out->rid.page = dec.U32();
  out->rid.slot = dec.U16();
  return dec.status();
}

Status ReadEntries(const Page* page, std::vector<GistEntry>* out) {
  out->clear();
  out->reserve(page->NumSlots());
  for (SlotId s = 0; s < page->NumSlots(); ++s) {
    MURAL_ASSIGN_OR_RETURN(const Slice rec, page->Get(s));
    GistEntry e;
    MURAL_RETURN_IF_ERROR(DecodeEntry(rec, &e));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Status WriteEntries(Page* page, const std::vector<GistEntry>& entries) {
  page->Clear();
  for (const GistEntry& e : entries) {
    MURAL_RETURN_IF_ERROR(page->Insert(EncodeEntry(e)).status());
  }
  return Status::OK();
}

size_t EntriesBytes(const std::vector<GistEntry>& entries) {
  size_t total = 0;
  for (const GistEntry& e : entries) total += e.key.size() + 14 + 4;
  return total;
}

constexpr size_t kNodeCapacityBytes = kPageSize - 64;

}  // namespace

StatusOr<GistTree> GistTree::Create(BufferPool* pool, const GistOps* ops) {
  MURAL_ASSIGN_OR_RETURN(WritePageGuard root, pool->NewPage());
  root->Init();
  root->set_level(0);
  root.MarkDirty();
  return GistTree(pool, ops, root.id());
}

Status GistTree::Insert(std::string key, Rid rid) {
  if (key.size() > kPageSize / 8) {
    return Status::InvalidArgument("GiST key too large");
  }
  GistEntry entry;
  entry.key = std::move(key);
  entry.rid = rid;
  SplitResult split;
  std::string new_union;
  MURAL_RETURN_IF_ERROR(
      InsertRec(root_, std::move(entry), /*target_level=*/0, &split,
                &new_union));
  if (split.split) {
    MURAL_ASSIGN_OR_RETURN(ReadPageGuard old_root, pool_->Fetch(root_));
    const uint16_t old_level = old_root->level();
    old_root.Release();
    MURAL_ASSIGN_OR_RETURN(WritePageGuard new_root, pool_->NewPage());
    new_root->Init();
    new_root->set_level(static_cast<uint16_t>(old_level + 1));
    GistEntry left_entry;
    left_entry.key = split.left_union;
    left_entry.child = root_;
    GistEntry right_entry;
    right_entry.key = split.right_union;
    right_entry.child = split.right;
    MURAL_RETURN_IF_ERROR(
        WriteEntries(new_root.get(), {left_entry, right_entry}));
    new_root.MarkDirty();
    root_ = new_root.id();
    ++num_pages_;
    ++height_;
  }
  ++num_entries_;
  ++stats_.inserts;
  return Status::OK();
}

Status GistTree::SplitNode(WritePageGuard* guard,
                           std::vector<GistEntry> entries, SplitResult* out) {
  std::vector<GistEntry> left, right;
  ops_->PickSplit(std::move(entries), &left, &right);
  MURAL_CHECK(!left.empty() && !right.empty()) << "PickSplit emptied a side";
  // lint: latch-exception(GiST node split: the overflowing node stays latched while the sibling is allocated so readers never see it mid-redistribution)
  MURAL_ASSIGN_OR_RETURN(WritePageGuard sibling, pool_->NewPage());
  sibling->Init();
  sibling->set_level((*guard)->level());
  MURAL_RETURN_IF_ERROR(WriteEntries(sibling.get(), right));
  sibling.MarkDirty();
  MURAL_RETURN_IF_ERROR(WriteEntries(guard->get(), left));
  guard->MarkDirty();
  ++num_pages_;
  ++stats_.splits;
  out->split = true;
  out->left_union = ops_->Union(left);
  out->right_union = ops_->Union(right);
  out->right = sibling.id();
  return Status::OK();
}

Status GistTree::InsertRec(PageId node, GistEntry entry,
                           uint16_t target_level, SplitResult* out,
                           std::string* new_union) {
  out->split = false;
  // Every outcome of this function rewrites `node` (leaf insert,
  // adjust-keys, or separator insert), so take the exclusive latch up
  // front.
  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard, pool_->FetchForWrite(node));
  std::vector<GistEntry> entries;
  MURAL_RETURN_IF_ERROR(ReadEntries(guard.get(), &entries));

  if (guard->level() == target_level) {
    entries.push_back(std::move(entry));
    if (EntriesBytes(entries) <= kNodeCapacityBytes) {
      MURAL_RETURN_IF_ERROR(WriteEntries(guard.get(), entries));
      guard.MarkDirty();
      *new_union = ops_->Union(entries);
      return Status::OK();
    }
    MURAL_RETURN_IF_ERROR(SplitNode(&guard, std::move(entries), out));
    return Status::OK();
  }

  // Choose the child with minimum penalty.
  MURAL_CHECK(!entries.empty()) << "internal GiST node with no entries";
  size_t best = 0;
  double best_penalty = ops_->Penalty(entries[0].key, entry.key);
  for (size_t i = 1; i < entries.size(); ++i) {
    const double p = ops_->Penalty(entries[i].key, entry.key);
    if (p < best_penalty) {
      best_penalty = p;
      best = i;
    }
  }
  const PageId child = entries[best].child;
  guard.Release();  // no pins across recursion

  SplitResult child_split;
  std::string child_union;
  MURAL_RETURN_IF_ERROR(InsertRec(child, std::move(entry), target_level,
                                  &child_split, &child_union));

  MURAL_ASSIGN_OR_RETURN(guard, pool_->FetchForWrite(node));
  MURAL_RETURN_IF_ERROR(ReadEntries(guard.get(), &entries));
  // `best` still addresses the same entry: splits only rewrite the child
  // node and this node is only modified below.
  if (!child_split.split) {
    entries[best].key = child_union;  // adjust-keys on the path
    MURAL_RETURN_IF_ERROR(WriteEntries(guard.get(), entries));
    guard.MarkDirty();
    *new_union = ops_->Union(entries);
    return Status::OK();
  }
  entries[best].key = child_split.left_union;
  GistEntry fresh;
  fresh.key = child_split.right_union;
  fresh.child = child_split.right;
  entries.push_back(std::move(fresh));
  if (EntriesBytes(entries) <= kNodeCapacityBytes) {
    MURAL_RETURN_IF_ERROR(WriteEntries(guard.get(), entries));
    guard.MarkDirty();
    *new_union = ops_->Union(entries);
    return Status::OK();
  }
  MURAL_RETURN_IF_ERROR(SplitNode(&guard, std::move(entries), out));
  return Status::OK();
}

Status GistTree::Search(
    const GistQuery& query,
    const std::function<void(const GistEntry&)>& fn) const {
  static Counter* probes =
      MetricsRegistry::Global().GetCounter("index.gist.probes");
  probes->Increment();
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId node = stack.back();
    stack.pop_back();
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool_->Fetch(node));
    ++stats_.nodes_visited;
    std::vector<GistEntry> entries;
    MURAL_RETURN_IF_ERROR(ReadEntries(guard.get(), &entries));
    const bool is_leaf = guard->level() == 0;
    for (const GistEntry& e : entries) {
      if (is_leaf) {
        ++stats_.leaf_entries_tested;
        if (ops_->Consistent(e, query, /*is_leaf=*/true)) fn(e);
      } else {
        ++stats_.internal_entries_tested;
        if (ops_->Consistent(e, query, /*is_leaf=*/false)) {
          stack.push_back(e.child);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace mural
