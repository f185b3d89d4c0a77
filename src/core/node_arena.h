// Chunked pool allocators for materialized L-Tree nodes.
//
// The paper's cost model (Section 3.1) counts node accesses, but wall time
// on the insert hot path is dominated by allocator traffic: every leaf and
// internal node used to be a separate `new`, and every split (Section 2.3)
// freed the violator's whole internal skeleton only to immediately
// re-allocate it when building the s replacement subtrees. These are the
// L-Tree instantiations of the generic chunked pool (core/pool_arena.h),
// one per node type so each slot is only as wide as its node: a 32-byte
// Leaf (two per cache line) and a one-line Inner. The free lists thread
// through Node::parent, which is meaningless for an unreachable node, so
// recycling costs no extra space.

#ifndef LTREE_CORE_NODE_ARENA_H_
#define LTREE_CORE_NODE_ARENA_H_

#include "core/node.h"
#include "core/pool_arena.h"

namespace ltree {

/// Allocator-traffic counters (see PoolArenaStats).
using NodeArenaStats = PoolArenaStats;

struct LeafArenaTraits {
  // A free leaf's parent slot holds the next free leaf; the pointer only
  // round-trips through Inner* and is never dereferenced as one.
  static void SetFreeNext(Leaf* n, Leaf* next) {
    n->parent = reinterpret_cast<Inner*>(next);
  }
  static Leaf* GetFreeNext(Leaf* n) {
    return reinterpret_cast<Leaf*>(n->parent);
  }
  static void Recycle(Leaf* n) { *n = Leaf(); }
};

struct InnerArenaTraits {
  static void SetFreeNext(Inner* n, Inner* next) { n->parent = next; }
  static Inner* GetFreeNext(Inner* n) { return n->parent; }
  static void Recycle(Inner* n) {
    n->children.clear();  // keeps the heap buffer for the next reuse
    n->num = 0;
    n->index_in_parent = 0;
    n->height = 1;
    n->deleted = false;
    n->leaf_count = 0;
  }
};

using LeafArena = PoolArena<Leaf, LeafArenaTraits>;
using InnerArena = PoolArena<Inner, InnerArenaTraits>;

static_assert(sizeof(Leaf) == 32, "two leaves per cache line");
static_assert(sizeof(Inner) <= 64, "one inner node per cache line");

}  // namespace ltree

#endif  // LTREE_CORE_NODE_ARENA_H_
