#include "core/ltree.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace ltree {

LTree::LTree(const Params& params, PowerTable powers)
    : params_(params), powers_(std::move(powers)) {
  root_ = inner_arena_.Allocate();  // empty: height 1, no children
}

// Every node lives in arena chunks, which free wholesale — no tree walk.
LTree::~LTree() = default;

NodeArenaStats LTree::arena_stats() const {
  const NodeArenaStats& leaf = leaf_arena_.stats();
  const NodeArenaStats& inner = inner_arena_.stats();
  return NodeArenaStats{
      .fresh_allocs = leaf.fresh_allocs + inner.fresh_allocs,
      .reused_allocs = leaf.reused_allocs + inner.reused_allocs,
      .releases = leaf.releases + inner.releases,
      .chunks = leaf.chunks + inner.chunks,
  };
}

MaintStats LTree::stats() const {
  MaintStats out = stats_;
  out.SetArenaTraffic(arena_stats(), arena_base_);
  return out;
}

void LTree::ResetStats() {
  stats_ = MaintStats();
  arena_base_ = arena_stats();
}

namespace {

uint64_t ChildBufferBytes(const Inner* n) {
  uint64_t bytes = n->children.capacity() * sizeof(Node*);
  if (n->height == 1) return bytes;
  for (const Node* c : n->children) {
    bytes += ChildBufferBytes(static_cast<const Inner*>(c));
  }
  return bytes;
}

}  // namespace

uint64_t LTree::ApproxHeapBytes() const {
  uint64_t bytes = leaf_arena_.stats().chunks * LeafArena::kChunkBytes +
                   inner_arena_.stats().chunks * InnerArena::kChunkBytes +
                   ChildBufferBytes(root_);
  // Free-list nodes keep their children buffers for reuse; count them too.
  inner_arena_.ForEachFree([&bytes](const Inner* n) {
    bytes += n->children.capacity() * sizeof(Node*);
  });
  return bytes;
}

Result<std::unique_ptr<LTree>> LTree::Create(const Params& params) {
  LTREE_ASSIGN_OR_RETURN(PowerTable powers, PowerTable::Make(params));
  return std::unique_ptr<LTree>(new LTree(params, std::move(powers)));
}

// --------------------------------------------------------------------------
// Bulk loading (Section 2.2)
// --------------------------------------------------------------------------

Status LTree::BulkLoad(std::span<const LeafCookie> cookies,
                       std::vector<LeafHandle>* handles) {
  if (root_->leaf_count != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty L-Tree");
  }
  const uint64_t n = cookies.size();
  if (n == 0) return Status::OK();
  const uint32_t h0 = std::max(1u, CeilLog(params_.d(), n));
  if (h0 > powers_.max_height()) {
    return Status::CapacityExceeded(
        StrFormat("bulk load of %llu leaves needs height %u > max height %u",
                  static_cast<unsigned long long>(n), h0,
                  powers_.max_height()));
  }
  std::vector<Leaf*> leaves;
  leaves.reserve(n);
  for (LeafCookie c : cookies) {
    Leaf* leaf = leaf_arena_.Allocate();
    leaf->cookie = c;
    leaf->num = kInvalidLabel;
    leaves.push_back(leaf);
  }
  inner_arena_.Release(root_);  // the empty placeholder root
  root_ = static_cast<Inner*>(BuildOverLeaves(std::span<Leaf*>(leaves), h0));
  live_leaves_ = n;
  // Initial label assignment is part of loading, not incremental maintenance.
  Relabel(root_, 0, 0, /*count_stats=*/false);
  if (handles != nullptr) {
    handles->reserve(handles->size() + leaves.size());
    handles->insert(handles->end(), leaves.begin(), leaves.end());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Tree construction helpers
// --------------------------------------------------------------------------

Node* LTree::BuildOverLeaves(std::span<Leaf*> leaves, uint32_t height) {
  LTREE_CHECK(!leaves.empty());
  if (height == 0) {
    LTREE_CHECK(leaves.size() == 1);
    return leaves[0];
  }
  LTREE_CHECK(leaves.size() <= powers_.PowD(height));
  Inner* node = inner_arena_.Allocate();
  node->height = height;
  node->leaf_count = leaves.size();
  const uint64_t seg_cap = powers_.PowD(height - 1);
  const uint64_t m = CeilDiv(leaves.size(), seg_cap);
  const uint64_t base = leaves.size() / m;
  const uint64_t rem = leaves.size() % m;
  node->children.reserve(m);
  size_t offset = 0;
  for (uint64_t i = 0; i < m; ++i) {
    const size_t len = static_cast<size_t>(base + (i < rem ? 1 : 0));
    Node* child = BuildOverLeaves(leaves.subspan(offset, len), height - 1);
    child->parent = node;
    child->index_in_parent = static_cast<uint32_t>(i);
    node->children.push_back(child);
    offset += len;
  }
  return node;
}

void LTree::BuildPieces(std::span<Leaf*> leaves, uint64_t pieces,
                        uint32_t piece_height, std::vector<Node*>* out) {
  LTREE_CHECK(pieces >= 1);
  LTREE_CHECK(leaves.size() >= pieces);
  out->clear();
  out->reserve(pieces);
  const uint64_t base = leaves.size() / pieces;
  const uint64_t rem = leaves.size() % pieces;
  size_t offset = 0;
  for (uint64_t i = 0; i < pieces; ++i) {
    const size_t len = static_cast<size_t>(base + (i < rem ? 1 : 0));
    out->push_back(BuildOverLeaves(leaves.subspan(offset, len), piece_height));
    offset += len;
  }
}

void LTree::ReleaseInternalNodes(Inner* n) {
  if (n->height > 1) {
    for (Node* child : n->children) {
      ReleaseInternalNodes(static_cast<Inner*>(child));
    }
  }
  inner_arena_.Release(n);
}

void LTree::FixIndicesFrom(Inner* parent, uint32_t from) {
  for (uint32_t i = from; i < parent->children.size(); ++i) {
    parent->children[i]->index_in_parent = i;
  }
}

// --------------------------------------------------------------------------
// Incremental maintenance (Section 2.3, Algorithm 1; Section 4.1 batches)
// --------------------------------------------------------------------------

Status LTree::EnsureCapacityFor(uint64_t k) const {
  auto l_new_opt = CheckedAdd(root_->leaf_count, k);
  if (!l_new_opt) {
    return Status::CapacityExceeded("leaf count would overflow uint64");
  }
  const uint64_t l_new = *l_new_opt;
  for (uint32_t h = root_->height; h <= powers_.max_height(); ++h) {
    if (l_new < powers_.LeafBudget(h) &&
        CeilDiv(l_new, powers_.PowD(h - 1)) <= params_.f) {
      return Status::OK();
    }
  }
  return Status::CapacityExceeded(StrFormat(
      "inserting %llu leaves (total %llu) exceeds the 64-bit label space of "
      "%s",
      static_cast<unsigned long long>(k),
      static_cast<unsigned long long>(l_new), params_.ToString().c_str()));
}

namespace {

/// Non-tombstoned leaves under `t` (the purge projection of the planner).
uint64_t LiveLeavesUnder(const Node* t) {
  if (t->IsLeaf()) return t->deleted ? 0 : 1;
  uint64_t live = 0;
  for (const Node* c : static_cast<const Inner*>(t)->children) {
    live += LiveLeavesUnder(c);
  }
  return live;
}

}  // namespace

Status LTree::PlanInsertAt(Inner* parent, uint32_t idx, uint64_t k,
                           BatchPlan* out) const {
  LTREE_CHECK(parent != nullptr);
  LTREE_CHECK(parent->height == 1);
  LTREE_CHECK(idx <= parent->children.size());
  BatchPlan& plan = *out;
  plan = BatchPlan();
  plan.parent = parent;
  plan.insert_index = idx;
  plan.batch_size = k;
  if (k == 0) return Status::OK();
  LTREE_RETURN_IF_ERROR(EnsureCapacityFor(k));

  // Algorithm 1 walk: the highest ancestor whose subtree would exceed its
  // leaf budget after the splice.
  Inner* v = nullptr;
  for (Inner* t = parent; t != nullptr; t = t->parent) {
    if (t->leaf_count + k >= powers_.LeafBudget(t->height)) v = t;
  }
  if (v == nullptr) return Status::OK();
  plan.needs_rebuild = true;

  // Escalation-aware coalescing: replacing the violator by m pieces can
  // momentarily overflow its parent's fanout (batches only; Proposition 3
  // rules it out for single leaves). Fold every such level into the region
  // now, so the apply phase rebuilds and relabels it exactly once instead
  // of once per level.
  while (v != root_) {
    const uint64_t leaves_after =
        (params_.purge_tombstones_on_split ? LiveLeavesUnder(v)
                                           : v->leaf_count) +
        k;
    const uint64_t m = CeilDiv(leaves_after, powers_.PowD(v->height));
    if (v->parent->children.size() - 1 + m <=
        static_cast<uint64_t>(params_.f) + 1) {
      plan.region = v;
      plan.region_leaves = leaves_after;
      plan.region_pieces = m;
      return Status::OK();
    }
    ++plan.levels_coalesced;
    v = v->parent;
  }
  plan.rebuild_root = true;
  return Status::OK();
}

Status LTree::InsertAt(Inner* parent, uint32_t idx,
                       std::span<const LeafCookie> cookies,
                       std::vector<LeafHandle>* handles) {
  BatchPlan plan;
  LTREE_RETURN_IF_ERROR(PlanInsertAt(parent, idx, cookies.size(), &plan));
  return ApplyPlan(plan, cookies, handles);
}

Status LTree::ApplyPlan(const BatchPlan& plan,
                        std::span<const LeafCookie> cookies,
                        std::vector<LeafHandle>* handles) {
  const uint64_t k = cookies.size();
  LTREE_CHECK(k == plan.batch_size);
  if (k == 0) return Status::OK();
  Inner* parent = plan.parent;
  const uint32_t idx = plan.insert_index;

  std::vector<Leaf*>& fresh = fresh_scratch_;
  fresh.clear();
  fresh.reserve(k);
  for (LeafCookie c : cookies) {
    Leaf* leaf = leaf_arena_.Allocate();
    leaf->cookie = c;
    leaf->num = kInvalidLabel;
    leaf->parent = parent;
    fresh.push_back(leaf);
  }
  // Pre-size to the steady-state fanout so the range insert never
  // reallocates mid-shift: the tail moves exactly once, and repeated
  // single-leaf inserts at the same parent stop paying the geometric
  // growth ladder (a height-1 node tops out at f+1 children, batches
  // excepted).
  if (parent->children.size() + k > parent->children.capacity()) {
    parent->children.reserve(
        std::max<size_t>(parent->children.size() + k, params_.f + 1));
  }
  parent->children.insert(parent->children.begin() + idx, fresh.begin(),
                          fresh.end());
  FixIndicesFrom(parent, idx);

  // Bump l(t) for every ancestor (Algorithm 1, lines 4-10; the rebuild
  // decision was already made by the planner).
  for (Inner* t = parent; t != nullptr; t = t->parent) {
    t->leaf_count += k;
    ++stats_.ancestor_updates;
  }
  live_leaves_ += k;

  if (!plan.needs_rebuild) {
    // No split: relabel the new leaves and their right siblings in one
    // pass (Algorithm 1, lines 12-13). Costs at most f node accesses.
    Relabel(parent, parent->num, idx, /*count_stats=*/true);
    ++stats_.relabel_passes;
  } else if (plan.rebuild_root) {
    stats_.escalations += plan.levels_coalesced;
    if (plan.levels_coalesced > 0) ++stats_.coalesced_regions;
    RebuildRoot();
  } else {
    RebuildRegion(plan);
  }

  stats_.inserts += k;
  if (handles != nullptr) {
    // Pre-size for the whole batch; the max() keeps growth geometric so
    // single-leaf insert streams stay amortized O(1) per append.
    const size_t need = handles->size() + fresh.size();
    if (need > handles->capacity()) {
      handles->reserve(std::max(need, handles->capacity() * 2));
    }
    handles->insert(handles->end(), fresh.begin(), fresh.end());
  }
  return Status::OK();
}

void LTree::RebuildRegion(const BatchPlan& plan) {
  Inner* v = plan.region;
  LTREE_CHECK(v != nullptr && v != root_);
  Inner* p = v->parent;
  const uint32_t j = v->index_in_parent;
  const uint32_t h = v->height;

  std::vector<Leaf*>& leaves = leaf_scratch_;
  leaves.clear();
  CollectLeaves(v, &leaves);
  // Release the internal skeleton before purging: MaybePurge recycles
  // tombstoned leaves, and the internal nodes' children vectors would
  // still point at them during the recursive walk. BuildPieces below
  // re-allocates a same-shape skeleton, so it is served almost entirely
  // from the free list these releases just filled.
  ReleaseInternalNodes(v);
  const uint64_t purged = MaybePurge(&leaves);
  LTREE_CHECK(leaves.size() == plan.region_leaves);

  // Section 2.3: replace v with m complete (f/s)-ary subtrees over the
  // same leaf sequence. (For the exact single-insert trigger
  // l(v) = s*d^h this is precisely s pieces of d^h leaves each; batches
  // may need more pieces.) The planner already guaranteed the m pieces fit
  // the parent's fanout, so no escalation can happen here.
  const uint64_t m = plan.region_pieces;
  std::vector<Node*>& pieces = piece_scratch_;
  BuildPieces(std::span<Leaf*>(leaves), m, h, &pieces);

  auto& siblings = p->children;
  siblings.erase(siblings.begin() + j);
  siblings.insert(siblings.begin() + j, pieces.begin(), pieces.end());
  for (Node* piece : pieces) piece->parent = p;
  FixIndicesFrom(p, j);
  if (purged > 0) {
    for (Inner* t = p; t != nullptr; t = t->parent) t->leaf_count -= purged;
  }
  LTREE_CHECK(siblings.size() <= static_cast<size_t>(params_.f) + 1);
  ++stats_.rebalances;
  stats_.escalations += plan.levels_coalesced;
  if (plan.levels_coalesced > 0) ++stats_.coalesced_regions;

  // Algorithm 1, line 23: relabel the replacement subtrees and v's right
  // siblings — one pass for the whole coalesced region.
  Relabel(p, p->num, j, /*count_stats=*/true);
  ++stats_.relabel_passes;
}

void LTree::RebuildRoot() {
  std::vector<Leaf*>& leaves = leaf_scratch_;
  leaves.clear();
  CollectLeaves(root_, &leaves);
  const uint32_t old_height = root_->height;
  // As in RebuildAt: recycle the internal skeleton before MaybePurge
  // recycles any tombstoned leaves it still points at.
  ReleaseInternalNodes(root_);
  root_ = nullptr;
  const uint64_t purged = MaybePurge(&leaves);
  (void)purged;  // counts live in stats_.tombstones_purged

  const uint64_t l = leaves.size();
  LTREE_CHECK(l >= 1);
  // Smallest height at which the leaf budget and the fanout both fit. A
  // budget-triggered root split lands exactly on the paper's rule: a new
  // root of height H+1 whose children are the s top-level subtrees.
  uint32_t new_height = 0;
  for (uint32_t h = old_height; h <= powers_.max_height(); ++h) {
    if (l < powers_.LeafBudget(h) &&
        CeilDiv(l, powers_.PowD(h - 1)) <= params_.f) {
      new_height = h;
      break;
    }
  }
  LTREE_CHECK(new_height >= 1);  // guaranteed by EnsureCapacityFor

  const uint64_t m = CeilDiv(l, powers_.PowD(new_height - 1));
  Inner* new_root = inner_arena_.Allocate();
  new_root->height = new_height;
  new_root->leaf_count = l;
  std::vector<Node*>& pieces = piece_scratch_;
  BuildPieces(std::span<Leaf*>(leaves), m, new_height - 1, &pieces);
  // assign (not move): piece_scratch_ keeps its buffer for the next rebuild.
  new_root->children.assign(pieces.begin(), pieces.end());
  for (uint32_t i = 0; i < new_root->children.size(); ++i) {
    new_root->children[i]->parent = new_root;
    new_root->children[i]->index_in_parent = i;
  }
  root_ = new_root;
  ++stats_.rebalances;
  ++stats_.root_splits;
  Relabel(root_, 0, 0, /*count_stats=*/true);
  ++stats_.relabel_passes;
}

uint64_t LTree::MaybePurge(std::vector<Leaf*>* leaves) {
  if (!params_.purge_tombstones_on_split) return 0;
  std::vector<Leaf*>& v = *leaves;
  uint64_t live = 0;
  for (Leaf* leaf : v) {
    if (!leaf->deleted) ++live;
  }
  if (live == v.size()) return 0;
  // Compact in place (no side buffer), recycling dropped tombstones.
  size_t w = 0;
  if (live == 0) {
    // Never leave a subtree empty: keep one tombstone as a placeholder.
    for (size_t i = 1; i < v.size(); ++i) RetireLeaf(v[i]);
    w = 1;
  } else {
    for (Leaf* leaf : v) {
      if (leaf->deleted) {
        RetireLeaf(leaf);
      } else {
        v[w++] = leaf;
      }
    }
  }
  const uint64_t purged = v.size() - w;
  stats_.tombstones_purged += purged;
  v.resize(w);
  return purged;
}

void LTree::RetireLeaf(Leaf* leaf) {
  if (epoch_ == nullptr) {
    leaf_arena_.Release(leaf);
    return;
  }
  epoch_->Retire(
      leaf,
      [](void* obj, void* ctx) {
        static_cast<LeafArena*>(ctx)->Release(static_cast<Leaf*>(obj));
      },
      &leaf_arena_);
}

// --------------------------------------------------------------------------
// Relabeling (Algorithm 1, function Relabel)
// --------------------------------------------------------------------------

void LTree::Relabel(Inner* t, Label num, uint32_t from_child,
                    bool count_stats) {
  if (count_stats) ++stats_.nodes_relabeled;
  t->num = num;
  const uint32_t n = static_cast<uint32_t>(t->children.size());
  if (t->height > 1) {
    const uint64_t step = powers_.PowF1(t->height - 1);
    for (uint32_t i = from_child; i < n; ++i) {
      Relabel(static_cast<Inner*>(t->children[i]), num + i * step, 0,
              count_stats);
    }
    return;
  }
  // Leaf level: num(leaf i) = num(t) + i * (f+1)^0.
  if (count_stats) stats_.nodes_relabeled += n - std::min(from_child, n);
  for (uint32_t i = from_child; i < n; ++i) {
    Leaf* leaf = static_cast<Leaf*>(t->children[i]);
    const Label old = leaf->num;
    const Label want = num + i;
    if (old == want) continue;
    if (old != kInvalidLabel) {
      // A tombstone's slot move is paid for (the paper's relabel cost) but
      // nobody outside the tree can observe it.
      if (count_stats) ++stats_.items_relabeled;
      if (listener_ != nullptr && !leaf->deleted) {
        listener_->OnRelabel(leaf->cookie, old, want);
      }
    }
    leaf->num = want;
  }
}

// --------------------------------------------------------------------------
// Public update entry points
// --------------------------------------------------------------------------

// The single-leaf forms are the k = 1 batches; ApplyPlan leaves the new
// leaf in fresh_scratch_.

Result<LTree::LeafHandle> LTree::InsertAfter(LeafHandle pos,
                                             LeafCookie cookie) {
  LTREE_RETURN_IF_ERROR(InsertBatchAfter(pos, {&cookie, 1}));
  return fresh_scratch_.front();
}

Result<LTree::LeafHandle> LTree::InsertBefore(LeafHandle pos,
                                              LeafCookie cookie) {
  LTREE_RETURN_IF_ERROR(InsertBatchBefore(pos, {&cookie, 1}));
  return fresh_scratch_.front();
}

Result<LTree::LeafHandle> LTree::PushBack(LeafCookie cookie) {
  LTREE_RETURN_IF_ERROR(PushBackBatch({&cookie, 1}));
  return fresh_scratch_.front();
}

Result<BatchPlan> LTree::PlanBatchAfter(LeafHandle pos, uint64_t k) const {
  LTREE_CHECK(pos != nullptr);
  LTREE_CHECK(pos->IsLeaf());
  BatchPlan plan;
  LTREE_RETURN_IF_ERROR(
      PlanInsertAt(pos->parent, pos->index_in_parent + 1, k, &plan));
  return plan;
}

Status LTree::InsertBatchAfter(LeafHandle pos,
                               std::span<const LeafCookie> cookies,
                               std::vector<LeafHandle>* handles) {
  LTREE_CHECK(pos != nullptr);
  LTREE_CHECK(pos->IsLeaf());
  return InsertAt(pos->parent, pos->index_in_parent + 1, cookies, handles);
}

Status LTree::InsertBatchBefore(LeafHandle pos,
                                std::span<const LeafCookie> cookies,
                                std::vector<LeafHandle>* handles) {
  LTREE_CHECK(pos != nullptr);
  LTREE_CHECK(pos->IsLeaf());
  return InsertAt(pos->parent, pos->index_in_parent, cookies, handles);
}

Status LTree::PushBackBatch(std::span<const LeafCookie> cookies,
                            std::vector<LeafHandle>* handles) {
  Leaf* last = RightmostLeaf(root_);
  if (last == nullptr) {
    return InsertAt(root_, 0, cookies, handles);
  }
  return InsertBatchAfter(last, cookies, handles);
}

Status LTree::MarkDeleted(LeafHandle leaf) {
  LTREE_CHECK(leaf != nullptr);
  LTREE_CHECK(leaf->IsLeaf());
  if (leaf->deleted) {
    return Status::FailedPrecondition("leaf already deleted");
  }
  leaf->deleted = true;
  --live_leaves_;
  ++stats_.erases;
  return Status::OK();
}

// --------------------------------------------------------------------------
// Queries / introspection
// --------------------------------------------------------------------------

LTree::LeafHandle LTree::FirstLeaf() const { return LeftmostLeaf(root_); }

LTree::LeafHandle LTree::NextLeaf(LeafHandle leaf) const {
  return ltree::NextLeaf(leaf);
}

LTree::LeafHandle LTree::FirstLiveLeaf() const {
  Leaf* leaf = LeftmostLeaf(root_);
  while (leaf != nullptr && leaf->deleted) leaf = ltree::NextLeaf(leaf);
  return leaf;
}

LTree::LeafHandle LTree::NextLiveLeaf(LeafHandle leaf) const {
  Leaf* cur = ltree::NextLeaf(leaf);
  while (cur != nullptr && cur->deleted) cur = ltree::NextLeaf(cur);
  return cur;
}

LTree::LeafHandle LTree::FindLeafByLabel(Label label) const {
  if (root_ == nullptr || root_->leaf_count == 0) return nullptr;
  // num(child i of t) = num(t) + i * (f+1)^(h(t)-1), so the owning child
  // index is pure arithmetic — no key comparisons, no search.
  Node* cur = root_;
  while (!cur->IsLeaf()) {
    const Inner* t = static_cast<const Inner*>(cur);
    const Label base = t->num.load();
    if (label < base) return nullptr;
    const uint64_t span = powers_.PowF1(t->height - 1);
    const uint64_t idx = (label - base) / span;
    if (idx >= t->children.size()) return nullptr;
    cur = t->children[idx];
  }
  return cur->num.load() == label ? static_cast<Leaf*>(cur) : nullptr;
}

uint64_t LTree::num_slots() const { return root_->leaf_count; }

uint32_t LTree::height() const { return root_->height; }

uint64_t LTree::label_space() const { return powers_.PowF1(root_->height); }

uint32_t LTree::label_bits() const {
  return BitWidth(label_space() - 1);
}

Label LTree::max_label() const {
  const Leaf* last = RightmostLeaf(root_);
  return last == nullptr ? Label{0} : last->num.load();
}

std::vector<Label> LTree::LiveLabels() const {
  std::vector<Label> out;
  out.reserve(live_leaves_);
  for (Leaf* leaf = LeftmostLeaf(root_); leaf != nullptr;
       leaf = ltree::NextLeaf(leaf)) {
    if (!leaf->deleted) out.push_back(leaf->num);
  }
  return out;
}

std::vector<Label> LTree::AllLabels() const {
  std::vector<Label> out;
  out.reserve(root_->leaf_count);
  for (Leaf* leaf = LeftmostLeaf(root_); leaf != nullptr;
       leaf = ltree::NextLeaf(leaf)) {
    out.push_back(leaf->num);
  }
  return out;
}

namespace {

void DumpNode(const Node* node, int depth, bool show_internal,
              std::ostringstream* os) {
  if (node->IsLeaf()) {
    const Leaf* leaf = static_cast<const Leaf*>(node);
    for (int i = 0; i < depth; ++i) *os << "  ";
    *os << "leaf num=" << leaf->num << " cookie=" << leaf->cookie;
    if (leaf->deleted) *os << " [deleted]";
    *os << "\n";
    return;
  }
  const Inner* inner = static_cast<const Inner*>(node);
  if (show_internal) {
    for (int i = 0; i < depth; ++i) *os << "  ";
    *os << "node h=" << inner->height << " num=" << inner->num
        << " l=" << inner->leaf_count << " c=" << inner->children.size()
        << "\n";
  }
  for (const Node* child : inner->children) {
    DumpNode(child, depth + 1, show_internal, os);
  }
}

}  // namespace

std::string LTree::DebugString(bool show_internal) const {
  std::ostringstream os;
  os << params_.ToString() << " height=" << root_->height
     << " slots=" << root_->leaf_count << " live=" << live_leaves_
     << " label_space=" << label_space() << "\n";
  if (root_->leaf_count > 0) DumpNode(root_, 0, show_internal, &os);
  return os.str();
}

}  // namespace ltree
