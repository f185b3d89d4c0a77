// Negative tests: LTree::Validate() must actually detect corruption, and
// name the broken rule. Node is exposed in core/node.h precisely so these
// tests can seed faults.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/macros.h"
#include "core/ltree.h"

namespace ltree {
namespace {

std::unique_ptr<LTree> MakeTree(std::vector<LTree::LeafHandle>* handles) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<LeafCookie> cookies(8);
  std::iota(cookies.begin(), cookies.end(), 0);
  LTREE_CHECK_OK(tree->BulkLoad(cookies, handles));
  return tree;
}

TEST(InvariantCheckerTest, DetectsWrongLeafLabel) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  ASSERT_TRUE(tree->Validate().ok());
  const Label saved = handles[3]->num;
  handles[3]->num = saved + 1;  // violates num(w) = num(v) + i*(f+1)^h
  EXPECT_TRUE(tree->Validate().HasRule("label-identity"));
  handles[3]->num = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsWrongLeafCount) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  Node* internal = handles[0]->parent;
  const uint64_t saved = internal->leaf_count;
  internal->leaf_count = saved + 1;
  EXPECT_TRUE(tree->Validate().HasRule("leaf-count-sum"));
  internal->leaf_count = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsBrokenParentPointer) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  Node* leaf = handles[2];
  Node* saved = leaf->parent;
  leaf->parent = handles[7]->parent;
  if (saved != leaf->parent) {
    EXPECT_TRUE(tree->Validate().HasRule("parent-link"));
  }
  leaf->parent = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsWrongIndexInParent) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  Node* leaf = handles[0];
  const uint32_t saved = leaf->index_in_parent;
  leaf->index_in_parent = saved + 1;
  EXPECT_TRUE(tree->Validate().HasRule("child-index"));
  leaf->index_in_parent = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsBudgetViolation) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  // Pretend a height-1 node owns more leaves than lmax(1) = 4 by wiring
  // extra children in (steal a leaf's slot bookkeeping): simply inflate
  // the count on the root beyond its budget.
  Node* root = const_cast<Node*>(tree->root());
  const uint64_t saved = root->leaf_count;
  root->leaf_count = tree->powers().LeafBudget(root->height);
  EXPECT_TRUE(tree->Validate().HasRule("leaf-budget"));
  root->leaf_count = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsStaleLiveCounter) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  handles[1]->deleted = true;  // bypassing MarkDeleted leaves counters stale
  EXPECT_TRUE(tree->Validate().HasRule("live-count"));
  handles[1]->deleted = false;
  EXPECT_TRUE(tree->Validate().ok());
}

}  // namespace
}  // namespace ltree
