#include "listlab/ltree_store.h"

#include <numeric>
#include <unordered_map>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/validate.h"

namespace ltree {
namespace listlab {

namespace {

std::string SchemeName(const char* kind, const Params& params) {
  return StrFormat("%s(f=%u,s=%u%s)", kind, params.f, params.s,
                   params.purge_tombstones_on_split ? ",purge" : "");
}

}  // namespace

// ---------------------------------------------------------------------------
// Materialized store
// ---------------------------------------------------------------------------

LTreeStore::LTreeStore(std::unique_ptr<LTree> tree) : tree_(std::move(tree)) {
  tree_->set_listener(this);
  tree_->set_epoch(&epoch_);
}

LTreeStore::~LTreeStore() {
  // Drain retired leaves back to the arena while tree_ (and its arena) is
  // still alive; legal because no reader can outlive the store.
  epoch_.ReclaimAllUnsafe();
}

Result<std::unique_ptr<LTreeStore>> LTreeStore::Make(const Params& params) {
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<LTree> tree, LTree::Create(params));
  return std::unique_ptr<LTreeStore>(new LTreeStore(std::move(tree)));
}

std::string LTreeStore::name() const {
  return SchemeName("ltree", tree_->params());
}

void LTreeStore::OnRelabel(LeafCookie cookie, Label old_label,
                           Label new_label) {
  if (listener_ != nullptr) listener_->OnRelabel(cookie, old_label, new_label);
}

Result<LTree::LeafHandle> LTreeStore::LiveHandle(ItemHandle h) const {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const uintptr_t bits = slots_[h].load(std::memory_order_acquire);
  if ((bits & kErasedBit) != 0) {
    return Status::NotFound("item handle already erased");
  }
  return reinterpret_cast<LTree::LeafHandle>(bits);
}

ItemHandle LTreeStore::Register(LTree::LeafHandle handle) {
  slots_.PushBack().store(reinterpret_cast<uintptr_t>(handle),
                          std::memory_order_release);
  slots_.Publish();
  return slots_.writer_size() - 1;
}

Status LTreeStore::BulkLoadImpl(std::span<const LeafCookie> cookies,
                                std::vector<ItemHandle>* handles) {
  std::vector<LTree::LeafHandle> fresh;
  LTREE_RETURN_IF_ERROR(tree_->BulkLoad(cookies, &fresh));
  for (LTree::LeafHandle leaf : fresh) {
    const ItemHandle h = Register(leaf);
    if (handles != nullptr) handles->push_back(h);
  }
  AutoValidate("BulkLoad");
  return Status::OK();
}

Result<ItemHandle> LTreeStore::InsertImpl(Where where, ItemHandle pos,
                                          std::span<const LeafCookie> cookies) {
  std::vector<LTree::LeafHandle>& fresh = fresh_scratch_;
  fresh.clear();
  if (where == Where::kBack) {
    LTREE_RETURN_IF_ERROR(tree_->PushBackBatch(cookies, &fresh));
  } else {
    LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle anchor, LiveHandle(pos));
    const Status st = where == Where::kAfter
                          ? tree_->InsertBatchAfter(anchor, cookies, &fresh)
                          : tree_->InsertBatchBefore(anchor, cookies, &fresh);
    LTREE_RETURN_IF_ERROR(st);
  }
  const ItemHandle first = slots_.writer_size();
  for (LTree::LeafHandle leaf : fresh) Register(leaf);
  AutoValidate("Insert");
  return first;
}

Status LTreeStore::EraseImpl(ItemHandle h) {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const uintptr_t bits = slots_[h].load(std::memory_order_relaxed);
  if ((bits & kErasedBit) != 0) {
    return Status::FailedPrecondition("item handle already erased");
  }
  const auto leaf = reinterpret_cast<LTree::LeafHandle>(bits);
  const LeafCookie cookie = tree_->cookie(leaf);
  const Label last_label = tree_->label(leaf);
  LTREE_RETURN_IF_ERROR(tree_->MarkDeleted(leaf));
  slots_[h].store(bits | kErasedBit, std::memory_order_release);
  if (listener_ != nullptr) listener_->OnErase(cookie, last_label);
  AutoValidate("Erase");
  return Status::OK();
}

Result<Label> LTreeStore::LabelImpl(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(h));
  return tree_->label(where);
}

Result<LeafCookie> LTreeStore::CookieImpl(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(h));
  return tree_->cookie(where);
}

void LTreeStore::SnapshotImpl(
    std::vector<std::pair<Label, LeafCookie>>* out) const {
  out->reserve(out->size() + tree_->num_live_leaves());
  for (LTree::LeafHandle leaf = tree_->FirstLiveLeaf(); leaf != nullptr;
       leaf = tree_->NextLiveLeaf(leaf)) {
    out->emplace_back(tree_->label(leaf), tree_->cookie(leaf));
  }
}

audit::Report LTreeStore::Validate() const {
  audit::Report report = tree_->Validate();
  // Handle map vs. the tree: collect the live leaves by traversal, then
  // check the non-erased handles map onto them one-to-one. An erased
  // slot's pointer must never be dereferenced — a purge may have freed it.
  std::unordered_map<const Leaf*, uint64_t> live_leaf_count;
  for (LTree::LeafHandle leaf = tree_->FirstLiveLeaf(); leaf != nullptr;
       leaf = tree_->NextLiveLeaf(leaf)) {
    ++live_leaf_count[leaf];
  }
  uint64_t live_handles = 0;
  for (ItemHandle h = 0; h < slots_.size(); ++h) {
    const std::string path = "store:/" + std::to_string(h);
    const uintptr_t bits = slots_[h].load(std::memory_order_acquire);
    const auto leaf = reinterpret_cast<LTree::LeafHandle>(bits & ~kErasedBit);
    if ((bits & kErasedBit) != 0) {
      // Without purging the tombstoned leaf must still be present.
      if (!tree_->params().purge_tombstones_on_split &&
          !tree_->deleted(leaf)) {
        report.Add(path, "handle-map",
                   "erased handle points at a non-tombstoned leaf");
      }
      continue;
    }
    ++live_handles;
    auto it = live_leaf_count.find(leaf);
    if (it == live_leaf_count.end()) {
      report.Add(path, "handle-map",
                 "live handle does not resolve to a live leaf");
    } else if (it->second == 0) {
      report.Add(path, "handle-map",
                 "two live handles resolve to the same leaf");
    } else {
      --it->second;
    }
  }
  if (live_handles != tree_->num_live_leaves()) {
    report.Add("store:/", "live-count",
               StrFormat("%llu live handles vs %llu live leaves",
                         static_cast<unsigned long long>(live_handles),
                         static_cast<unsigned long long>(
                             tree_->num_live_leaves())));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Virtual store
// ---------------------------------------------------------------------------

VirtualLTreeStore::VirtualLTreeStore(std::unique_ptr<VirtualLTree> tree)
    : tree_(std::move(tree)) {
  tree_->set_listener(this);
  tree_->set_epoch(&epoch_);
}

VirtualLTreeStore::~VirtualLTreeStore() {
  // Drain retired B+-tree nodes while the tree's arena is still alive.
  epoch_.ReclaimAllUnsafe();
}

Result<std::unique_ptr<VirtualLTreeStore>> VirtualLTreeStore::Make(
    const Params& params) {
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<VirtualLTree> tree,
                         VirtualLTree::Create(params));
  return std::unique_ptr<VirtualLTreeStore>(
      new VirtualLTreeStore(std::move(tree)));
}

std::string VirtualLTreeStore::name() const {
  return SchemeName("virtual-ltree", tree_->params());
}

void VirtualLTreeStore::OnRelabel(LeafCookie cookie, Label old_label,
                                  Label new_label) {
  // The tree's leaf cookies are our item handles; the client payload lives
  // in the slot. The slot may still be unpublished (a batch in flight
  // relabeling its own fresh leaves), so bound by the writer's size.
  const ItemHandle h = cookie;
  LTREE_CHECK(h < slots_.writer_size());
  VSlot& slot = slots_[h];
  slot.label.store(new_label);
  if (listener_ != nullptr) {
    listener_->OnRelabel(slot.cookie.load(), old_label, new_label);
  }
}

Result<Label> VirtualLTreeStore::LabelImpl(ItemHandle h) const {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const VSlot& slot = slots_[h];
  if (slot.erased.load(std::memory_order_acquire)) {
    return Status::NotFound("item handle already erased");
  }
  return slot.label.load();
}

ItemHandle VirtualLTreeStore::Reserve(std::span<const LeafCookie> cookies) {
  const ItemHandle first = slots_.writer_size();
  for (const LeafCookie cookie : cookies) {
    // Slots are recycled after a rolled-back reserve, so reset every field.
    VSlot& slot = slots_.PushBack();
    slot.label.store(kInvalidLabel);
    slot.cookie.store(cookie);
    slot.erased.store(false, std::memory_order_relaxed);
  }
  return first;
}

void VirtualLTreeStore::Unreserve(uint64_t k) {
  slots_.ShrinkTo(slots_.writer_size() - k);
}

template <typename Op>
Result<ItemHandle> VirtualLTreeStore::RunBatch(
    std::span<const LeafCookie> cookies, Op&& op) {
  const ItemHandle first = Reserve(cookies);
  tree_cookies_scratch_.resize(cookies.size());
  std::iota(tree_cookies_scratch_.begin(), tree_cookies_scratch_.end(), first);
  labels_scratch_.clear();
  Status st = op(std::span<const LeafCookie>(tree_cookies_scratch_),
                 &labels_scratch_);
  if (!st.ok()) {
    Unreserve(cookies.size());
    return st;
  }
  for (size_t i = 0; i < labels_scratch_.size(); ++i) {
    slots_[first + i].label.store(labels_scratch_[i]);
  }
  slots_.Publish();
  AutoValidate("insert");
  return first;
}

Status VirtualLTreeStore::BulkLoadImpl(std::span<const LeafCookie> cookies,
                                       std::vector<ItemHandle>* handles) {
  const auto load = [&](auto tree_cookies, auto* labels) {
    return tree_->BulkLoad(tree_cookies, labels);
  };
  LTREE_ASSIGN_OR_RETURN(const ItemHandle first, RunBatch(cookies, load));
  if (handles != nullptr) {
    for (ItemHandle h = first; h < first + cookies.size(); ++h) {
      handles->push_back(h);
    }
  }
  return Status::OK();
}

Result<ItemHandle> VirtualLTreeStore::InsertImpl(
    Where where, ItemHandle pos, std::span<const LeafCookie> cookies) {
  Label anchor = kInvalidLabel;
  if (where != Where::kBack) {
    LTREE_ASSIGN_OR_RETURN(anchor, LabelImpl(pos));
  }
  return RunBatch(cookies, [&](auto tree_cookies, auto* labels) {
    switch (where) {
      case Where::kAfter:
        return tree_->InsertBatchAfter(anchor, tree_cookies, labels);
      case Where::kBefore:
        return tree_->InsertBatchBefore(anchor, tree_cookies, labels);
      case Where::kBack:
        break;
    }
    return tree_->PushBackBatch(tree_cookies, labels);
  });
}

Status VirtualLTreeStore::EraseImpl(ItemHandle h) {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  VSlot& slot = slots_[h];
  if (slot.erased.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("item handle already erased");
  }
  const Label label = slot.label.load();
  LTREE_RETURN_IF_ERROR(tree_->MarkDeleted(label));
  slot.erased.store(true, std::memory_order_release);
  if (listener_ != nullptr) listener_->OnErase(slot.cookie.load(), label);
  AutoValidate("Erase");
  return Status::OK();
}

Result<LeafCookie> VirtualLTreeStore::CookieImpl(ItemHandle h) const {
  LTREE_RETURN_IF_ERROR(LabelImpl(h).status());
  return slots_[h].cookie.load();
}

void VirtualLTreeStore::SnapshotImpl(
    std::vector<std::pair<Label, LeafCookie>>* out) const {
  const std::vector<Label> labels = tree_->LiveLabels();
  out->reserve(out->size() + labels.size());
  for (const Label label : labels) {
    // The tree's cookie for a label is our handle; the client payload
    // lives in the slot.
    auto handle = tree_->GetCookie(label);
    LTREE_CHECK(handle.ok());
    out->emplace_back(label, slots_[*handle].cookie.load());
  }
}

audit::Report VirtualLTreeStore::Validate() const {
  audit::Report report = tree_->Validate();
  // Cookie <-> label bijection: the tree's leaf cookies are our handles,
  // so every non-erased handle's label must exist in the B+-tree, carry
  // that handle as its cookie, and be live. Together with the live counts
  // agreeing this makes handle -> label a bijection onto the live labels.
  uint64_t live_handles = 0;
  for (ItemHandle h = 0; h < slots_.size(); ++h) {
    const VSlot& slot = slots_[h];
    if (slot.erased.load(std::memory_order_acquire)) continue;
    ++live_handles;
    const Label label = slot.label.load();
    const std::string path = "store:/" + std::to_string(h);
    auto cookie = tree_->GetCookie(label);
    if (!cookie.ok()) {
      report.Add(path, "cookie-label-bijection",
                 StrFormat("handle's label %llu is missing from the tree",
                           static_cast<unsigned long long>(label)));
      continue;
    }
    if (*cookie != h) {
      report.Add(path, "cookie-label-bijection",
                 StrFormat("label %llu maps back to handle %llu",
                           static_cast<unsigned long long>(label),
                           static_cast<unsigned long long>(*cookie)));
    }
    auto deleted = tree_->IsDeleted(label);
    if (deleted.ok() && *deleted) {
      report.Add(path, "cookie-label-bijection",
                 "live handle's label is tombstoned in the tree");
    }
  }
  if (live_handles != tree_->num_live_leaves()) {
    report.Add("store:/", "live-count",
               StrFormat("%llu live handles vs %llu live leaves",
                         static_cast<unsigned long long>(live_handles),
                         static_cast<unsigned long long>(
                             tree_->num_live_leaves())));
  }
  return report;
}

}  // namespace listlab
}  // namespace ltree
