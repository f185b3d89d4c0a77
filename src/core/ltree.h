// Materialized L-Tree (the paper's primary contribution).
//
// An L-Tree is an ordered, balanced tree whose n leaves correspond, in
// document order, to the begin/end tags of an XML document (Section 2). Each
// leaf's label is the paper's num(leaf); labels are order-preserving
// (Proposition 1) and are maintained under insertions with O(log n)
// amortized node accesses and O(log n) bits per label (Section 3.1).
//
// Supported operations:
//  * BulkLoad          — Section 2.2: complete (f/s)-ary initial build.
//  * InsertAfter/Before — Section 2.3, Algorithm 1: single-leaf insertion;
//    splits the highest ancestor whose subtree exceeds its leaf budget
//    lmax(t) = s*(f/s)^{h(t)} into s complete (f/s)-ary subtrees.
//  * InsertBatchAfter  — Section 4.1: multi-leaf (subtree) insertion with a
//    single rebalance, lowering amortized cost roughly logarithmically in
//    the batch size.
//  * MarkDeleted       — Section 2.3: deletions are tombstones, no relabeling
//    (optional purge-on-split extension via Params).
//
// Thread-compatibility: externally synchronized (like an STL container).

#ifndef LTREE_CORE_LTREE_H_
#define LTREE_CORE_LTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/batch_plan.h"
#include "core/epoch.h"
#include "core/maint_stats.h"
#include "core/node.h"
#include "core/node_arena.h"
#include "core/params.h"
#include "core/relabel_listener.h"
#include "core/validate.h"

namespace ltree {

class LTree {
 public:
  /// Opaque, stable reference to a leaf. Handles survive splits and
  /// relabelings; they are invalidated only by tombstone purging (if enabled)
  /// and by destroying the tree.
  using LeafHandle = Leaf*;

  /// Creates an empty L-Tree. Fails if params are invalid.
  static Result<std::unique_ptr<LTree>> Create(const Params& params);

  ~LTree();
  LTree(const LTree&) = delete;
  LTree& operator=(const LTree&) = delete;

  // ---------------------------------------------------------------- loading

  /// Builds the initial complete (f/s)-ary tree over `cookies` (Section 2.2).
  /// Only valid on an empty tree. If `handles` is non-null it receives one
  /// handle per cookie, in order. Bulk loading does not count toward the
  /// incremental-maintenance statistics.
  Status BulkLoad(std::span<const LeafCookie> cookies,
                  std::vector<LeafHandle>* handles = nullptr);

  // ---------------------------------------------------------------- updates

  /// Inserts a new leaf immediately after `pos` (Algorithm 1).
  Result<LeafHandle> InsertAfter(LeafHandle pos, LeafCookie cookie);

  /// Inserts a new leaf immediately before `pos`.
  Result<LeafHandle> InsertBefore(LeafHandle pos, LeafCookie cookie);

  /// Appends a leaf after the current last leaf (works on an empty tree).
  Result<LeafHandle> PushBack(LeafCookie cookie);

  /// Inserts `cookies.size()` consecutive leaves after `pos` with a single
  /// rebalance (Section 4.1). Appends the new handles to `handles` if
  /// non-null.
  Status InsertBatchAfter(LeafHandle pos, std::span<const LeafCookie> cookies,
                          std::vector<LeafHandle>* handles = nullptr);

  /// Inserts consecutive leaves before `pos` (batch form of InsertBefore).
  Status InsertBatchBefore(LeafHandle pos, std::span<const LeafCookie> cookies,
                           std::vector<LeafHandle>* handles = nullptr);

  /// Appends a batch at the end (works on an empty tree).
  Status PushBackBatch(std::span<const LeafCookie> cookies,
                       std::vector<LeafHandle>* handles = nullptr);

  /// Planning phase of the batch pipeline, exposed for tests and benches:
  /// projects the effect of splicing `k` leaves after `pos` without
  /// mutating the tree — the highest budget violator with the whole
  /// escalation chain coalesced into one rebuild region. Fails with
  /// CapacityExceeded exactly when the insert itself would. The plan is
  /// invalidated by any mutation.
  Result<BatchPlan> PlanBatchAfter(LeafHandle pos, uint64_t k) const;

  /// Tombstones a leaf (Section 2.3): the label slot stays occupied, no
  /// relabeling happens. Fails with FailedPrecondition if already deleted.
  Status MarkDeleted(LeafHandle leaf);

  // ---------------------------------------------------------------- queries

  /// The leaf's current label. O(1); Proposition 1: document order of two
  /// tags is exactly the numeric order of their labels.
  Label label(LeafHandle leaf) const { return leaf->num; }

  LeafCookie cookie(LeafHandle leaf) const { return leaf->cookie; }
  bool deleted(LeafHandle leaf) const { return leaf->deleted; }

  /// Resolves a label to the leaf holding it via the num(w) identity of
  /// Proposition 2 — an arithmetic descent: at each level the child index
  /// is (label - num(t)) / (f+1)^(h(t)-1), one subtraction and one divide,
  /// with no per-node key comparisons (the L-Tree counterpart of the
  /// B+-tree's in-node search). Returns nullptr if no leaf currently owns
  /// that exact label; tombstoned leaves still own their slot and are
  /// returned. O(height).
  LeafHandle FindLeafByLabel(Label label) const;

  /// Leftmost leaf (including tombstones), or nullptr if empty.
  LeafHandle FirstLeaf() const;
  /// Successor in label order (including tombstones), or nullptr.
  LeafHandle NextLeaf(LeafHandle leaf) const;
  /// First non-deleted leaf, or nullptr.
  LeafHandle FirstLiveLeaf() const;
  /// Next non-deleted leaf, or nullptr.
  LeafHandle NextLiveLeaf(LeafHandle leaf) const;

  /// Number of leaf slots (live + tombstoned).
  uint64_t num_slots() const;
  /// Number of live (non-deleted) leaves.
  uint64_t num_live_leaves() const { return live_leaves_; }

  /// Current height H of the tree (>= 1).
  uint32_t height() const;

  /// Size of the current label space, (f+1)^H. All labels are < this.
  uint64_t label_space() const;

  /// Bits needed to encode any label the current tree can produce.
  uint32_t label_bits() const;

  /// Largest label currently assigned (0 if empty).
  Label max_label() const;

  const Params& params() const { return params_; }
  const PowerTable& powers() const { return powers_; }

  /// Operation counters since the last ResetStats(), with the arena's
  /// allocator traffic over the same window filled into the returned copy.
  MaintStats stats() const;

  /// Restarts the stats window (node accesses and allocator traffic).
  void ResetStats();

  /// Lifetime arena counters, summed over the leaf and inner-node arenas
  /// (monotonic; never reset). arena_stats().live() equals the number of
  /// nodes currently reachable from the root plus any epoch-pending leaves,
  /// which the conservation tests assert.
  NodeArenaStats arena_stats() const;

  /// Measured heap footprint: both arenas' chunks (one slot stride per
  /// node, live or free) plus every inner node's children buffer — the
  /// materialized side of the Section 4.2 space bench, mirroring
  /// CountedBTree::ApproxHeapBytes so the comparison shares one policy.
  uint64_t ApproxHeapBytes() const;

  /// Receives label-change notifications; may be nullptr.
  void set_listener(RelabelListener* listener) { listener_ = listener; }

  /// Attaches an epoch manager for concurrent readers: tombstone-purged
  /// leaves are retired through it instead of released straight to the
  /// arena, so a reader loading `label(handle)` under a ReadGuard never
  /// observes a recycled node. Internal skeleton nodes are still released
  /// immediately — readers hold only leaf handles, never internal pointers.
  /// The manager must outlive the tree, and the owner must drain it
  /// (ReclaimAllUnsafe) before the tree's arenas die.
  void set_epoch(epoch::EpochManager* epoch) { epoch_ = epoch; }
  epoch::EpochManager* epoch() const { return epoch_; }

  /// Labels of live leaves, in document order.
  std::vector<Label> LiveLabels() const;
  /// Labels of all leaf slots (including tombstones), in document order.
  std::vector<Label> AllLabels() const;

  /// Root node, exposed for the invariant checker / tests / debug dumper.
  const Inner* root() const { return root_; }

  /// Deep validator (core/validate.cc): Proposition 2 structure (uniform
  /// leaf depth, fanout <= f+1, leaf budgets l(t) < lmax(t)), parent/child
  /// link symmetry, the label identity
  /// num(w) = num(parent) + index(w) * (f+1)^{h(w)} (hence Proposition 1
  /// strict label monotonicity across leaves), tombstone accounting against
  /// num_live_leaves(), and arena conservation per node type (each arena's
  /// live() == its reachable nodes, plus epoch-pending leaves).
  /// Reports every violation with an "ltree:"-prefixed node path.
  audit::Report Validate() const;

  /// Multi-line structural dump (for examples and debugging).
  std::string DebugString(bool show_internal = true) const;

 private:
  friend class LTreeTestPeer;  // arena access for negative and heap tests

  explicit LTree(const Params& params, PowerTable powers);

  /// Plan + apply: inserts `cookies` as children of `parent` (height-1
  /// node) starting at child index `idx`.
  Status InsertAt(Inner* parent, uint32_t idx,
                  std::span<const LeafCookie> cookies,
                  std::vector<LeafHandle>* handles);

  /// Planning phase (Algorithm 1 walk + escalation coalescing); mutates
  /// nothing. `idx` is unused by the decision but recorded in the plan.
  /// Out-param form so the per-insert hot path pays no Result packaging.
  Status PlanInsertAt(Inner* parent, uint32_t idx, uint64_t k,
                      BatchPlan* plan) const;

  /// Apply phase: splices the fresh leaves per `plan`, then rebuilds and
  /// relabels the planned region exactly once.
  Status ApplyPlan(const BatchPlan& plan, std::span<const LeafCookie> cookies,
                   std::vector<LeafHandle>* handles);

  /// Fails with CapacityExceeded if adding `k` leaves could require a root
  /// rebuild beyond the 64-bit label space.
  Status EnsureCapacityFor(uint64_t k) const;

  /// Rebuilds plan.region into plan.region_pieces complete (f/s)-ary
  /// subtrees and relabels the parent suffix in a single pass (Section 2.3;
  /// the coalesced form of the paper's split).
  void RebuildRegion(const BatchPlan& plan);

  /// Rebuilds the root, growing the height (root split of Algorithm 1).
  void RebuildRoot();

  /// Builds a (f/s)-ary tree of exactly `height` over `leaves` (reusing the
  /// leaf nodes). leaves.size() must be in [1, d^height]. Height 0 returns
  /// the single leaf itself.
  Node* BuildOverLeaves(std::span<Leaf*> leaves, uint32_t height);

  /// Splits `leaves` into `pieces` even segments and builds one subtree of
  /// height `piece_height` per segment, written into `*out` (cleared
  /// first; rebuilds pass the reusable piece_scratch_).
  void BuildPieces(std::span<Leaf*> leaves, uint64_t pieces,
                   uint32_t piece_height, std::vector<Node*>* out);

  /// Paper's Relabel(t, num, from): assigns num(t) and recursively relabels
  /// children starting at `from_child`. A height-1 node relabels its leaves
  /// in one flat loop (num(leaf i) = num(t) + i).
  void Relabel(Inner* t, Label num, uint32_t from_child, bool count_stats);

  /// Compacts tombstoned leaves out of `leaves` in place (if purging is
  /// enabled), releasing the nodes to the arena and reporting how many were
  /// dropped. Always keeps at least one leaf so subtrees never become empty.
  uint64_t MaybePurge(std::vector<Leaf*>* leaves);

  /// Releases the inner nodes of the subtree rooted at `n` to their arena,
  /// leaving leaf nodes alive (they are reused by rebuilds).
  void ReleaseInternalNodes(Inner* n);

  /// Frees a purged leaf: epoch-retired when a manager is attached (readers
  /// may still hold the handle), released to the arena otherwise.
  void RetireLeaf(Leaf* leaf);

  static void FixIndicesFrom(Inner* parent, uint32_t from);

  Params params_;
  PowerTable powers_;
  // The arenas own every node and must outlive root_.
  LeafArena leaf_arena_;
  InnerArena inner_arena_;
  Inner* root_ = nullptr;
  uint64_t live_leaves_ = 0;
  MaintStats stats_;
  NodeArenaStats arena_base_;  ///< arena snapshot at last ResetStats()
  RelabelListener* listener_ = nullptr;
  epoch::EpochManager* epoch_ = nullptr;  ///< not owned; may be nullptr

  // Scratch buffers reused across rebuilds so RebuildAt/RebuildRoot (and
  // the escalation loop) stop re-allocating their leaf and piece vectors on
  // every split. Only valid within one rebuild step at a time.
  std::vector<Leaf*> leaf_scratch_;
  std::vector<Node*> piece_scratch_;
  /// ApplyPlan's new-leaf buffer: holds the last insert's leaves, in order.
  std::vector<Leaf*> fresh_scratch_;
};

}  // namespace ltree

#endif  // LTREE_CORE_LTREE_H_
