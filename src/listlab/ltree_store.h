// LabelStore implementations for the paper's two L-Tree variants, so the
// docstore, benches and tests can drive every scheme with the same op
// stream and no leaked core types.
//
// Both stores implement the lock-free side of the LabelStore concurrency
// contract (concurrency_mode() == kLockFreeReads): per-handle state lives
// in a ConcurrentSlotTable whose slots are plain atomics, leaf labels and
// cookies are AtomicCells inside epoch-protected nodes, and each store owns
// the epoch::EpochManager its tree retires freed nodes through. Readers
// holding a ReadGuard therefore never block, and never observe a recycled
// node mid-read.

#ifndef LTREE_LISTLAB_LTREE_STORE_H_
#define LTREE_LISTLAB_LTREE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/atomic_cell.h"
#include "core/epoch.h"
#include "core/ltree.h"
#include "core/slot_table.h"
#include "listlab/order_maintainer.h"
#include "virtual_ltree/virtual_ltree.h"

namespace ltree {
namespace listlab {

/// Materialized L-Tree behind the LabelStore interface. Handles map to leaf
/// nodes internally; erase tombstones (Section 2.3), optionally purged at
/// the next covering split when Params::purge_tombstones_on_split is set.
class LTreeStore : public LabelStore, private RelabelListener {
 public:
  static Result<std::unique_ptr<LTreeStore>> Make(const Params& params);
  ~LTreeStore() override;

  std::string name() const override;
  EraseSemantics erase_semantics() const override {
    return tree_->params().purge_tombstones_on_split
               ? EraseSemantics::kTombstonePurge
               : EraseSemantics::kTombstone;
  }
  ConcurrencyMode concurrency_mode() const override {
    return ConcurrencyMode::kLockFreeReads;
  }
  uint64_t size() const override { return tree_->num_live_leaves(); }
  uint32_t label_bits() const override { return tree_->label_bits(); }
  uint64_t ApproxHeapBytes() const override {
    return tree_->ApproxHeapBytes() + slots_.ApproxHeapBytes();
  }
  MaintStats stats() const override { return tree_->stats(); }
  void ResetStats() override { tree_->ResetStats(); }

  /// Deep validator: audits the wrapped L-Tree (LTree::Validate) with its
  /// epoch manager (arena conservation counts epoch-pending nodes; the
  /// `epoch-reclamation` rule proves no retired leaf is still reachable),
  /// then the handle map — every non-erased handle must resolve to a
  /// distinct live leaf and every live leaf must be reachable through
  /// exactly one handle; without purging, erased handles must point at
  /// tombstones.
  audit::Report Validate() const override;

  /// The wrapped tree (read-only; for L-Tree-specific stats in benches).
  const LTree& tree() const { return *tree_; }

 protected:
  Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                      std::vector<ItemHandle>* handles) override;
  Result<ItemHandle> InsertImpl(Where where, ItemHandle pos,
                                std::span<const LeafCookie> cookies) override;
  Status EraseImpl(ItemHandle h) override;
  // LabelImpl/CookieImpl read only the atomic slot table and atomic leaf
  // fields, so LabelOf/CookieOf/CompareOrder are lock-free safe for this
  // store.
  Result<Label> LabelImpl(ItemHandle h) const override;
  Result<LeafCookie> CookieImpl(ItemHandle h) const override;
  void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const override;
  epoch::EpochManager* epoch_manager() const override { return &epoch_; }

 private:
  explicit LTreeStore(std::unique_ptr<LTree> tree);
  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;
  Result<LTree::LeafHandle> LiveHandle(ItemHandle h) const;
  ItemHandle Register(LTree::LeafHandle handle);

  /// Low bit of a slot word. Leaves sit on 32-byte slot boundaries
  /// (LeafArena::kSlotStride), so the pointer's low bit is free for the
  /// erased flag; one atomic word keeps pointer and flag consistent for
  /// readers. An erased slot's pointer must never be dereferenced — a purge
  /// may have freed the leaf it names.
  static constexpr uintptr_t kErasedBit = 1;

  std::unique_ptr<LTree> tree_;
  /// handle -> tagged leaf pointer (see kErasedBit).
  ConcurrentSlotTable<std::atomic<uintptr_t>> slots_;
  /// Reclamation domain for leaves purged by tree_ (mutable: handed out
  /// from the const epoch_manager() accessor; Pin/Unpin are thread-safe).
  mutable epoch::EpochManager epoch_;
  /// InsertImpl's fresh-leaf buffer, reused so inserts stay allocation-free.
  std::vector<LTree::LeafHandle> fresh_scratch_;
};

/// Virtual L-Tree behind the LabelStore interface: no stable positions
/// exist inside the tree (only labels), so the store keeps the
/// handle <-> current-label map over the counted B+-tree, maintained
/// through the tree's RelabelListener.
class VirtualLTreeStore : public LabelStore, private RelabelListener {
 public:
  static Result<std::unique_ptr<VirtualLTreeStore>> Make(const Params& params);
  ~VirtualLTreeStore() override;

  std::string name() const override;
  EraseSemantics erase_semantics() const override {
    return tree_->params().purge_tombstones_on_split
               ? EraseSemantics::kTombstonePurge
               : EraseSemantics::kTombstone;
  }
  ConcurrencyMode concurrency_mode() const override {
    return ConcurrencyMode::kLockFreeReads;
  }
  uint64_t size() const override { return tree_->num_live_leaves(); }
  uint32_t label_bits() const override { return tree_->label_bits(); }
  uint64_t ApproxHeapBytes() const override {
    return tree_->ApproxMemoryBytes() + slots_.ApproxHeapBytes();
  }
  MaintStats stats() const override { return tree_->stats(); }
  void ResetStats() override { tree_->ResetStats(); }

  /// Deep validator: audits the wrapped virtual tree (and its backing
  /// counted B+-tree, whose arena conservation and `epoch-reclamation`
  /// rules account for epoch-pending nodes), then the cookie <-> label
  /// bijection — every non-erased handle's label must exist in the
  /// B+-tree, map back to that handle, and be live; handle and tree live
  /// counts must agree.
  audit::Report Validate() const override;

  const VirtualLTree& tree() const { return *tree_; }

 protected:
  Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                      std::vector<ItemHandle>* handles) override;
  Result<ItemHandle> InsertImpl(Where where, ItemHandle pos,
                                std::span<const LeafCookie> cookies) override;
  Status EraseImpl(ItemHandle h) override;
  /// Also resolves InsertImpl's anchor (final: the call is direct).
  Result<Label> LabelImpl(ItemHandle h) const final;
  Result<LeafCookie> CookieImpl(ItemHandle h) const override;
  void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const override;
  epoch::EpochManager* epoch_manager() const override { return &epoch_; }

 private:
  /// Per-handle state, one published slot per handle ever issued. All
  /// fields are atomic so guarded readers can load them lock-free; the
  /// writer keeps a live slot's label current through OnRelabel (an
  /// erased slot's label goes stale, and nothing reads it).
  struct VSlot {
    AtomicCell<Label> label;
    AtomicCell<LeafCookie> cookie;
    std::atomic<bool> erased{false};
  };

  explicit VirtualLTreeStore(std::unique_ptr<VirtualLTree> tree);
  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;
  /// Reserves unpublished slots for k fresh items; returns the first new
  /// handle. Published by RunBatch only after the labels landed.
  ItemHandle Reserve(std::span<const LeafCookie> cookies);
  void Unreserve(uint64_t k);
  /// Shared reserve -> run tree op (fed the reserved handles as tree
  /// cookies) -> record labels / roll back plumbing behind every insert.
  /// Returns the first new handle.
  template <typename Op>
  Result<ItemHandle> RunBatch(std::span<const LeafCookie> cookies, Op&& op);

  std::unique_ptr<VirtualLTree> tree_;
  ConcurrentSlotTable<VSlot> slots_;  // handle -> (label, cookie, erased)
  /// Reclamation domain for the backing B+-tree's freed nodes (mutable:
  /// handed out from the const epoch_manager() accessor).
  mutable epoch::EpochManager epoch_;
  /// RunBatch's tree-cookie and label buffers, reused across inserts.
  std::vector<LeafCookie> tree_cookies_scratch_;
  std::vector<Label> labels_scratch_;
};

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_LISTLAB_LTREE_STORE_H_
