// Virtual L-Tree (Section 4.2 of the paper).
//
// "As an alternative to storing the L-Tree on disk, we can store only the
// leaf labels (with the XML nodes) because all the structural information of
// the L-Tree is implicit in the labels themselves": the base-(f+1) digits of
// a leaf label encode its whole ancestor path. This class runs the exact
// incremental-maintenance algorithm of Section 2.3 with no materialized
// internal nodes, using a counted B+-tree over the labels:
//
//  * l(t) of a virtual node at height h containing label x is the range
//    count of [trunc_h(x), trunc_h(x) + (f+1)^h);
//  * a split recomputes the labels in the violating interval (plus right
//    siblings) and writes them back with a range replacement.
//
// The implementation mirrors LTree decision-for-decision, so an identical
// operation stream yields bit-identical label sequences (this is verified
// by the equivalence test suite). The trade-off, as the paper notes, is
// extra O(log n) computation per access in exchange for not materializing
// the structure.

#ifndef LTREE_VIRTUAL_LTREE_VIRTUAL_LTREE_H_
#define LTREE_VIRTUAL_LTREE_VIRTUAL_LTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/ltree.h"
#include "core/params.h"
#include "core/validate.h"
#include "obtree/counted_btree.h"

namespace ltree {

class VirtualLTree {
 public:
  static Result<std::unique_ptr<VirtualLTree>> Create(const Params& params);

  // ---------------------------------------------------------------- loading

  /// Initial build (Section 2.2); assigns exactly the labels the
  /// materialized bulk load would. Returns them in order via `labels`.
  Status BulkLoad(std::span<const LeafCookie> cookies,
                  std::vector<Label>* labels = nullptr);

  // ---------------------------------------------------------------- updates
  //
  // Unlike the materialized tree there are no stable handles: positions are
  // identified by their current label. Relabeled neighbours are reported
  // through the RelabelListener.

  /// Inserts a new leaf right after the leaf labeled `prev`.
  Result<Label> InsertAfter(Label prev, LeafCookie cookie);

  /// Inserts a new leaf right before the leaf labeled `next`.
  Result<Label> InsertBefore(Label next, LeafCookie cookie);

  /// Appends after the largest label (valid on an empty structure).
  Result<Label> PushBack(LeafCookie cookie);

  /// Batch insertion (Section 4.1) after the leaf labeled `prev`. New labels
  /// are appended to `labels` if non-null. NOTE: the new labels are the
  /// post-rebalance ones.
  Status InsertBatchAfter(Label prev, std::span<const LeafCookie> cookies,
                          std::vector<Label>* labels = nullptr);

  /// Batch insertion before the leaf labeled `next`.
  Status InsertBatchBefore(Label next, std::span<const LeafCookie> cookies,
                           std::vector<Label>* labels = nullptr);

  /// Appends a batch at the end (valid on an empty structure).
  Status PushBackBatch(std::span<const LeafCookie> cookies,
                       std::vector<Label>* labels = nullptr);

  /// Tombstones the leaf labeled `label` (Section 2.3).
  Status MarkDeleted(Label label);

  // ---------------------------------------------------------------- queries

  /// Cookie of the leaf labeled `label`; NotFound if absent.
  Result<LeafCookie> GetCookie(Label label) const;

  /// Whether the slot exists and is tombstoned.
  Result<bool> IsDeleted(Label label) const;

  /// Label of the rank-th slot (0-based, document order).
  Result<Label> SelectSlot(uint64_t rank) const;

  uint64_t num_slots() const;
  uint64_t num_live_leaves() const { return live_leaves_; }
  uint32_t height() const { return height_; }
  uint64_t label_space() const;
  uint32_t label_bits() const;

  std::vector<Label> AllLabels() const;
  std::vector<Label> LiveLabels() const;

  const Params& params() const { return params_; }

  /// Operation counters since the last ResetStats(), with the B+-tree node
  /// pool's allocator traffic over the same window filled into the returned
  /// copy. The Section 4.2 cost unit, B-tree operations, is `range_counts`;
  /// the materialized tree's node-access counters stay zero.
  MaintStats stats() const;

  /// Restarts the stats window (B-tree operations and allocator traffic).
  void ResetStats();

  /// Lifetime pool counters of the underlying counted B+-tree (monotonic;
  /// never reset). arena_stats().live() equals the B+-tree's reachable
  /// node count — the conservation property the obtree tests assert.
  const PoolArenaStats& arena_stats() const { return btree_.arena_stats(); }

  void set_listener(RelabelListener* listener) { listener_ = listener; }

  /// Attaches an epoch manager to the backing counted B+-tree: nodes freed
  /// by relabel rebuilds are retired instead of recycled immediately, so
  /// concurrent readers of the owning store never observe a reused node.
  /// See CountedBTree::set_epoch for lifetime obligations.
  void set_epoch(epoch::EpochManager* epoch) { btree_.set_epoch(epoch); }
  epoch::EpochManager* epoch() const { return btree_.epoch(); }

  /// Bytes of heap the label store roughly occupies (for the Section 4.2
  /// space-trade-off bench).
  uint64_t ApproxMemoryBytes() const;

  /// Deep validator: the backing counted B+-tree's report, plus the
  /// virtual structure — label-space bounds, consecutive child digits
  /// within every occupied interval, leaf budgets, and tombstone accounting
  /// against num_live_leaves() — under "virtual:"-prefixed paths.
  audit::Report Validate() const;

 private:
  friend class VirtualLTreeTestPeer;  // plants raw entries for negative tests

  VirtualLTree(const Params& params, PowerTable powers);

  /// Truncates label x to the base of its height-h virtual ancestor.
  Label TruncTo(Label x, uint32_t h) const;
  /// Base-(f+1) digit of x at height h.
  uint64_t DigitAt(Label x, uint32_t h) const;

  /// Core insertion: k new leaves become children j..j+k-1 of the height-1
  /// virtual node based at P (existing children at >= j shift right).
  Status InsertCore(Label parent_base, uint64_t j,
                    std::span<const LeafCookie> cookies,
                    std::vector<Label>* labels);

  Status EnsureCapacityFor(uint64_t k) const;

  /// Mirrors LTree::BuildOverLeaves/Relabel: emits labels for `count`
  /// leaves arranged as an even (f/s)-ary tree of `height` based at `base`.
  void AssignOver(uint64_t count, uint32_t height, Label base,
                  std::vector<Label>* out) const;

  /// Rebuild of the violating interval at height `vh` (split of Section
  /// 2.3), with escalation and root growth. `pending` are the new entries
  /// to splice at `insert_before_key` (i.e. before any existing entry with
  /// key >= that).
  Status RebuildWithPending(uint32_t vh, Label anchor,
                            Label insert_before_key,
                            std::span<const obtree::Entry> pending,
                            std::vector<Label>* fresh_labels);

  /// Drops tombstoned entries if purging is enabled (keeps >= 1 entry).
  uint64_t MaybePurge(std::vector<obtree::Entry>* entries,
                      std::span<const Label> fresh);

  static uint64_t PackValue(LeafCookie cookie, bool deleted) {
    return (cookie << 1) | (deleted ? 1u : 0u);
  }
  static LeafCookie UnpackCookie(uint64_t value) { return value >> 1; }
  static bool UnpackDeleted(uint64_t value) { return (value & 1u) != 0; }

  Params params_;
  PowerTable powers_;
  obtree::CountedBTree btree_;
  uint32_t height_ = 1;
  uint64_t live_leaves_ = 0;
  MaintStats stats_;
  PoolArenaStats arena_base_;  ///< pool snapshot at last ResetStats()
  RelabelListener* listener_ = nullptr;
};

}  // namespace ltree

#endif  // LTREE_VIRTUAL_LTREE_VIRTUAL_LTREE_H_
