// Operation counters for every labeling scheme, matching the paper's cost
// accounting: relabels per insertion, node accesses (Section 3.1: ancestor
// count updates plus nodes visited while relabeling) and, for the virtual
// variant, B-tree operations (Section 4.2).
//
// LTree, VirtualLTree and the linked-list schemes all count straight into
// this one struct; counters a scheme has no notion of stay zero.

#ifndef LTREE_CORE_MAINT_STATS_H_
#define LTREE_CORE_MAINT_STATS_H_

#include <cstdint>
#include <string>

namespace ltree {

struct PoolArenaStats;

struct MaintStats {
  // ---- every scheme ----
  uint64_t inserts = 0;  ///< items inserted (batch items count individually)
  uint64_t erases = 0;
  /// Existing items whose label changed (excludes the inserted item itself).
  /// Tombstoned slots count too, since rewriting them is the paper's cost,
  /// so with erases this can exceed the number of listener OnRelabel calls.
  uint64_t items_relabeled = 0;
  /// Rebalance/renumber events: region rebuilds plus root splits for the
  /// L-Tree (one per coalesced region, not per level), window
  /// redistributions for Bender, full renumberings for Gap/Sequential.
  uint64_t rebalances = 0;

  // ---- plan/apply pipeline (L-Tree schemes; zero elsewhere) ----
  /// Label-rewrite passes run by the mutation path: the L-Tree variants
  /// guarantee exactly one pass per insert/batch — the no-split sibling
  /// relabel or the single pass over the coalesced rebuilt region (bulk
  /// loads don't count).
  uint64_t relabel_passes = 0;
  /// Rebuilt regions that absorbed at least one fanout-overflow escalation
  /// (batch insertions only; the planner folds the whole chain into one
  /// region instead of rebuilding level by level).
  uint64_t coalesced_regions = 0;

  // ---- allocator traffic ----
  // Arena deltas since the last ResetStats(), filled into the copy stats()
  // returns by schemes with pooled node storage (the L-Tree's node arenas,
  // the virtual tree's B+-tree pool); zero for schemes without one.
  uint64_t nodes_allocated = 0;  ///< fresh pool allocations (heap growth)
  uint64_t nodes_reused = 0;     ///< allocations served by recycling
  uint64_t nodes_released = 0;   ///< nodes returned for recycling

  // ---- L-Tree breakdowns (zero for the linked-list schemes) ----
  /// Height-increasing rebuilds; included in `rebalances`, so the non-root
  /// region rebuilds are `rebalances - root_splits`.
  uint64_t root_splits = 0;
  /// Fanout-overflow levels folded into a region by the planner (batch
  /// insertions only).
  uint64_t escalations = 0;
  /// Tombstones dropped by purge-on-split rebuilds.
  uint64_t tombstones_purged = 0;
  /// Ancestor leaf_count updates (the `h` term of the cost formula;
  /// materialized tree only).
  uint64_t ancestor_updates = 0;
  /// Nodes visited by Relabel() (the `f` + split-relabel terms;
  /// materialized tree only).
  uint64_t nodes_relabeled = 0;
  /// Range-count probes of the counted B+-tree issued by the maintenance
  /// walk (violator walk plus the planner's escalation probes; virtual
  /// tree only).
  uint64_t range_counts = 0;
  /// System allocations (chunks) taken by the node pool.
  uint64_t arena_chunks = 0;

  /// Total node accesses charged by the paper's accounting.
  uint64_t NodeAccesses() const { return ancestor_updates + nodes_relabeled; }

  /// NodeAccesses() per inserted item.
  double AmortizedCostPerInsert() const {
    return inserts == 0 ? 0.0
                        : static_cast<double>(NodeAccesses()) /
                              static_cast<double>(inserts);
  }

  double RelabelsPerInsert() const {
    return inserts == 0 ? 0.0
                        : static_cast<double>(items_relabeled) /
                              static_cast<double>(inserts);
  }

  /// Sets the allocator-traffic counters (and arena_chunks) to the pool's
  /// growth from `base` to `now`.
  void SetArenaTraffic(const PoolArenaStats& now, const PoolArenaStats& base);

  /// Pointwise sum of every counter (the sharded store's rollup).
  MaintStats& operator+=(const MaintStats& other);
  bool operator==(const MaintStats& other) const = default;

  std::string ToString() const;
};

}  // namespace ltree

#endif  // LTREE_CORE_MAINT_STATS_H_
