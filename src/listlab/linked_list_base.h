// Shared doubly-linked-list plumbing for the label-on-node baseline schemes
// (sequential, gap, Bender). Keeps item allocation, handle lookup and the
// generic parts of LabelStore so each scheme only implements its label
// policy. Erase physically unlinks (EraseSemantics::kPhysical): the label
// value is vacated and may be reused by later insertions.

#ifndef LTREE_LISTLAB_LINKED_LIST_BASE_H_
#define LTREE_LISTLAB_LINKED_LIST_BASE_H_

#include <cstdint>
#include <vector>

#include "listlab/order_maintainer.h"

namespace ltree {
namespace listlab {

/// A list item with an explicit stored label and a client payload.
struct ListItem {
  ListItem* prev = nullptr;
  ListItem* next = nullptr;
  Label label = 0;
  ItemHandle handle = 0;
  LeafCookie cookie = 0;
  bool erased = false;
};

/// Base class: owns the items, the handle table and the list links.
class LinkedListScheme : public LabelStore {
 public:
  ~LinkedListScheme() override;

  EraseSemantics erase_semantics() const final {
    return EraseSemantics::kPhysical;
  }

  uint64_t size() const final { return live_; }
  uint32_t label_bits() const final;
  uint64_t ApproxHeapBytes() const final {
    // Estimated: one heap ListItem per handle ever issued (erased items
    // are kept for FailedPrecondition detection) plus the handle table.
    return items_.size() * sizeof(ListItem) +
           items_.capacity() * sizeof(ListItem*);
  }
  MaintStats stats() const final { return stats_; }
  void ResetStats() final { stats_ = MaintStats(); }

  /// Deep validator shared by the three linked-list schemes: link symmetry
  /// (prev/next/tail), strict label monotonicity, label-universe bounds,
  /// live-count accounting, and handle-table consistency (each linked item
  /// registered under its own handle, erased items unlinked).
  audit::Report Validate() const override;

 protected:
  // Mutation bodies (serialized by LabelStore's public wrappers).
  Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                      std::vector<ItemHandle>* handles) final;
  /// Places the items one by one (each scheme's PlaceItem); a failure
  /// erases the ones this call already placed.
  Result<ItemHandle> InsertImpl(Where where, ItemHandle pos,
                                std::span<const LeafCookie> cookies) final;
  Status EraseImpl(ItemHandle h) final;
  Result<Label> LabelImpl(ItemHandle h) const final;
  Result<LeafCookie> CookieImpl(ItemHandle h) const final;
  void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const final;

  /// Assigns initial labels for the n freshly linked items (head_ onward).
  /// Called once from BulkLoad; must not fire the listener.
  virtual Status AssignInitialLabels(uint64_t n) = 0;

  /// Assigns `item`'s label given its linked neighbours (item is already
  /// linked in). Relabels neighbours through SetLabel so stats and the
  /// listener stay in sync.
  virtual Status PlaceItem(ListItem* item) = 0;

  /// Lowest label value a scheme may assign (0) and the exclusive upper
  /// bound of its current label universe (for bits accounting).
  virtual uint64_t LabelUniverse() const = 0;

  /// Writes `label` into `item`; if the value changed and `item` is not the
  /// freshly inserted `fresh`, counts one relabel and fires the listener.
  void SetLabel(ListItem* item, Label label, const ListItem* fresh);

  Result<ListItem*> FindLive(ItemHandle h) const;
  ListItem* AllocItem(LeafCookie cookie);
  void LinkAfter(ListItem* where, ListItem* item);   // where may be null: front
  void Unlink(ListItem* item);

  ListItem* head_ = nullptr;
  ListItem* tail_ = nullptr;
  std::vector<ListItem*> items_;  // handle -> item
  uint64_t live_ = 0;
  MaintStats stats_;

 private:
  /// Links a fresh item after `prev` (nullptr: front) and places it.
  Result<ListItem*> InsertLinked(ListItem* prev, LeafCookie cookie);
};

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_LISTLAB_LINKED_LIST_BASE_H_
