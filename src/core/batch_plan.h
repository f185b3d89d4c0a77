// Plan phase of the batch-mutation pipeline (Section 4.1).
//
// Every splice into the L-Tree now runs plan -> apply. The plan walks the
// anchor's ancestor chain once, projects the post-insert (and, with purging
// enabled, post-purge) leaf counts, and coalesces the entire escalation
// chain into a single rebuild region before any node is touched. The apply
// phase then splices the fresh leaves, rebuilds the coalesced region
// exactly once and relabels it in one pass — instead of rebuilding level by
// level and discovering each fanout overflow only after paying for the
// rebuild below it.
//
// The virtual L-Tree (Section 4.2) mirrors this plan decision-for-decision
// over the counted B+-tree so identical operation streams keep producing
// bit-identical labels; see the plan phase of
// VirtualLTree::RebuildWithPending.

#ifndef LTREE_CORE_BATCH_PLAN_H_
#define LTREE_CORE_BATCH_PLAN_H_

#include <cstdint>

namespace ltree {

struct Inner;

/// Outcome of LTree's planning phase for one (possibly single-leaf) batch
/// splice. Pointers are valid until the next mutation of the tree.
struct BatchPlan {
  /// Where the fresh leaves go: children [insert_index, insert_index + k)
  /// of `parent`, a height-1 node.
  Inner* parent = nullptr;
  uint32_t insert_index = 0;
  uint64_t batch_size = 0;

  /// Some subtree exceeds its leaf budget after the splice.
  bool needs_rebuild = false;
  /// The coalesced region is the whole tree (rebuild grows the height).
  bool rebuild_root = false;
  /// Subtree rebuilt and relabeled in one pass (when !rebuild_root): the
  /// highest budget violator, escalated while replacing it by
  /// `region_pieces` subtrees would overflow its parent's fanout.
  Inner* region = nullptr;
  /// Projected leaf count of the region after the splice and (if enabled)
  /// the tombstone purge.
  uint64_t region_leaves = 0;
  /// Number of complete (f/s)-ary pieces the region is rebuilt into.
  uint64_t region_pieces = 0;
  /// Escalation levels folded into the region (0 = the violator itself).
  uint32_t levels_coalesced = 0;
};

}  // namespace ltree

#endif  // LTREE_CORE_BATCH_PLAN_H_
