#include "core/node.h"

namespace ltree {

// Note: there is deliberately no free function that deletes core nodes —
// every Leaf and Inner is owned by one of its tree's arenas
// (core/node_arena.h), which recycle individual nodes and free their chunks
// wholesale on destruction.

Leaf* LeftmostLeaf(Node* node) {
  while (node != nullptr && !node->IsLeaf()) {
    const auto& children = static_cast<Inner*>(node)->children;
    if (children.empty()) return nullptr;
    node = children.front();
  }
  return static_cast<Leaf*>(node);
}

Leaf* RightmostLeaf(Node* node) {
  while (node != nullptr && !node->IsLeaf()) {
    const auto& children = static_cast<Inner*>(node)->children;
    if (children.empty()) return nullptr;
    node = children.back();
  }
  return static_cast<Leaf*>(node);
}

Leaf* NextLeaf(Leaf* leaf) {
  Node* cur = leaf;
  // Climb until cur has a right sibling.
  while (cur->parent != nullptr &&
         cur->index_in_parent + 1 == cur->parent->children.size()) {
    cur = cur->parent;
  }
  if (cur->parent == nullptr) return nullptr;
  Node* sib = cur->parent->children[cur->index_in_parent + 1];
  return LeftmostLeaf(sib);
}

void CollectLeaves(Node* node, std::vector<Leaf*>* out) {
  if (node == nullptr) return;
  if (node->IsLeaf()) {
    out->push_back(static_cast<Leaf*>(node));
    return;
  }
  for (Node* child : static_cast<Inner*>(node)->children) {
    CollectLeaves(child, out);
  }
}

}  // namespace ltree
