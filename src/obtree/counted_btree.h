// Counted (order-statistic) B+-tree.
//
// Section 4.2 of the paper runs the L-Tree maintenance algorithm without a
// materialized tree: "if the leaf labels are maintained in a B-tree whose
// internal nodes also maintain counts, such range queries can be executed
// efficiently (in logarithmic time)". This module is that substrate: a
// B+-tree keyed by Label whose internal nodes carry subtree entry counts,
// supporting logarithmic rank/select/range-count plus ordered scans and
// range replacement (the "updated in place" relabeling step).
//
// Keys are unique. Values are opaque uint64 payloads (the virtual L-Tree
// stores a tag id plus a tombstone bit).

#ifndef LTREE_OBTREE_COUNTED_BTREE_H_
#define LTREE_OBTREE_COUNTED_BTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/epoch.h"
#include "core/params.h"
#include "core/pool_arena.h"
#include "core/validate.h"

namespace ltree {
namespace obtree {

/// Chunked pool behind every CountedBTree node (defined in the .cc, where
/// the node layout lives; a PoolArena instantiation like core/NodeArena).
class BTreeNodeArena;

/// Largest supported node order. Node key/child arrays are fixed-capacity
/// (embedded in the 64B-aligned arena slot, no heap indirection), sized for
/// kMaxNodeOrder plus one transient overflow slot on insert-then-split
/// paths.
inline constexpr uint32_t kMaxNodeOrder = 64;

/// One key/value entry.
struct Entry {
  Label key;
  uint64_t value;

  bool operator==(const Entry& other) const = default;
};

class CountedBTree {
 public:
  /// `order` = max entries per leaf and max children per internal node, in
  /// [4, kMaxNodeOrder]. Minimum occupancy is order/2 (root exempt).
  explicit CountedBTree(uint32_t order = 64);
  ~CountedBTree();

  CountedBTree(const CountedBTree&) = delete;
  CountedBTree& operator=(const CountedBTree&) = delete;
  CountedBTree(CountedBTree&& other) noexcept;
  CountedBTree& operator=(CountedBTree&& other) noexcept;

  // ------------------------------------------------------------- mutations

  /// Inserts a new entry; AlreadyExists if the key is present.
  Status Insert(Label key, uint64_t value);

  /// Updates the value of an existing key; NotFound otherwise.
  Status Update(Label key, uint64_t value);

  /// Removes a key; NotFound if absent.
  Status Delete(Label key);

  /// Replaces all entries with keys in [lo, hi) by `entries` (which must be
  /// sorted by key, unique, and lie within [lo, hi)). This is the virtual
  /// L-Tree's bulk relabel primitive, implemented as one structural pass:
  /// locate the leaf range, splice the replacement run in place, repair
  /// occupancy/counts/separators bottom-up once (instead of k deletes plus
  /// k inserts at O(log n) each). `lo == hi` is a no-op; an empty `entries`
  /// span is a pure range erase; replacing the whole key range degenerates
  /// to a pool-recycled BulkBuild.
  Status ReplaceRange(Label lo, Label hi, std::span<const Entry> entries);

  /// Rebuilds the tree from sorted unique entries (replacing any content).
  Status BulkBuild(std::span<const Entry> entries);

  /// Removes everything.
  void Clear();

  // --------------------------------------------------------------- queries

  /// Number of entries.
  uint64_t size() const;

  Result<uint64_t> Lookup(Label key) const;
  bool Contains(Label key) const;

  /// Number of keys strictly below `key`. O(log n).
  uint64_t CountLess(Label key) const;

  /// Number of keys in [lo, hi). O(log n).
  uint64_t RangeCount(Label lo, Label hi) const;

  /// The rank-th smallest entry (rank 0 = smallest); OutOfRange if rank >=
  /// size(). O(log n).
  Result<Entry> Select(uint64_t rank) const;

  /// Smallest entry with key >= `key`; NotFound if none.
  Result<Entry> LowerBound(Label key) const;

  /// Largest entry with key < `key`; NotFound if none.
  Result<Entry> Predecessor(Label key) const;

  /// All entries with keys in [lo, hi), in key order.
  std::vector<Entry> Scan(Label lo, Label hi) const;

  /// All entries in key order.
  std::vector<Entry> ScanAll() const;

  /// Ordered forward iterator.
  class Iterator {
   public:
    bool Valid() const { return !stack_.empty(); }
    Label key() const;
    uint64_t value() const;
    void Next();

   private:
    friend class CountedBTree;
    struct Frame {
      const void* node;
      uint32_t index;
    };
    std::vector<Frame> stack_;
  };

  /// Iterator at the smallest key.
  Iterator Begin() const;
  /// Iterator at the smallest key >= `key`.
  Iterator Seek(Label key) const;

  /// Deep validator: reports every violated structural rule (occupancy,
  /// key ordering, separator and count consistency, uniform leaf depth,
  /// arena conservation live() == NodeCount()) with "btree:"-prefixed node
  /// paths.
  audit::Report Validate() const;

  uint32_t order() const { return order_; }

  /// Attaches an epoch manager for concurrent readers: every node freed by
  /// Delete/ReplaceRange/BulkBuild/Clear is retired through it instead of
  /// going straight to the pool free list, so a reader traversing a
  /// possibly-stale structure under a ReadGuard never observes a recycled
  /// node. The manager must outlive the tree, and the owner must drain it
  /// (ReclaimAllUnsafe) before the tree's arena dies. Survives moves.
  void set_epoch(epoch::EpochManager* epoch) { epoch_ = epoch; }
  epoch::EpochManager* epoch() const { return epoch_; }

  /// Lifetime allocator counters of the node pool (monotonic; never
  /// reset). arena_stats().live() equals NodeCount() at every quiescent
  /// point — the conservation property the obtree arena tests assert.
  const PoolArenaStats& arena_stats() const;

  /// Number of nodes currently reachable from the root. O(n) walk; meant
  /// for tests and memory accounting, not hot paths.
  uint64_t NodeCount() const;

  /// Measured heap footprint: arena chunks (for the Section 4.2 space
  /// bench). Every node's key/value/child storage is embedded in its
  /// cache-line-padded arena slot, so chunks are the whole footprint.
  uint64_t ApproxHeapBytes() const;

  /// Opaque node type (defined in the .cc; public so file-local helpers can
  /// name it).
  struct Node;

 private:
  /// Re-creates the arena if a move emptied it (arena_ == nullptr implies
  /// root_ == nullptr, so only Insert/BulkBuild ever need this).
  BTreeNodeArena* EnsureArena();

  Node* root_ = nullptr;
  uint32_t order_;
  std::unique_ptr<BTreeNodeArena> arena_;
  epoch::EpochManager* epoch_ = nullptr;  ///< not owned; may be nullptr
};

}  // namespace obtree
}  // namespace ltree

#endif  // LTREE_OBTREE_COUNTED_BTREE_H_
