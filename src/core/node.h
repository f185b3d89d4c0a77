// Internal node representation of the materialized L-Tree.
//
// Exposed in a header (rather than hidden in ltree.cc) so that the invariant
// checker, the test suite and the debug dumper can walk the raw structure;
// library users should treat LeafHandle as opaque.

#ifndef LTREE_CORE_NODE_H_
#define LTREE_CORE_NODE_H_

#include <cstdint>
#include <vector>

#include "core/atomic_cell.h"
#include "core/params.h"

namespace ltree {

struct Inner;

/// The 24-byte header every L-Tree node starts with. `height` tells the two
/// node kinds apart: 0 is a Leaf, anything else an Inner, and walks
/// `static_cast` on it. Only Leaf and Inner are ever allocated.
///
/// `num` is an AtomicCell: the concurrent LabelStore mode lets reader
/// threads load a leaf's label (and cookie) through a held LeafHandle while
/// the serialized writer relabels (release stores, acquire loads — see
/// core/atomic_cell.h). All other fields are structural and only touched
/// under the writer's exclusive section; readers never walk them.
struct Node {
  Inner* parent = nullptr;
  /// The paper's num(t): smallest label of the node's interval.
  AtomicCell<Label> num = 0;
  /// Position within parent->children; maintained on every mutation.
  uint32_t index_in_parent = 0;
  /// h(t): edges to the leaf level; 0 for leaves.
  uint16_t height = 0;
  /// Tombstone flag (leaves only). Section 2.3: deletions only mark.
  bool deleted = false;

  bool IsLeaf() const { return height == 0; }
};

/// A leaf: the header plus the client cookie. 32 bytes, so two leaves share
/// one cache line.
struct Leaf : Node {
  AtomicCell<LeafCookie> cookie = 0;
};

/// An internal node: the header plus l(t), the paper's leaf count (counting
/// tombstoned leaves too, since a tombstone still occupies a label slot),
/// and the children. Children of a height-1 node are Leafs, of any other
/// node Inners of height - 1.
struct Inner : Node {
  Inner() { height = 1; }

  uint64_t leaf_count = 0;
  std::vector<Node*> children;
};

/// First (leftmost) leaf under `node`, or nullptr for a childless subtree.
Leaf* LeftmostLeaf(Node* node);

/// Last (rightmost) leaf under `node`, or nullptr.
Leaf* RightmostLeaf(Node* node);

/// In-order successor leaf (including tombstoned leaves), or nullptr.
Leaf* NextLeaf(Leaf* leaf);

/// Appends all leaves under `node` to `out` in document order.
void CollectLeaves(Node* node, std::vector<Leaf*>* out);

}  // namespace ltree

#endif  // LTREE_CORE_NODE_H_
