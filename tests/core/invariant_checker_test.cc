// Negative tests: LTree::Validate() must actually detect corruption, and
// name the broken rule. Leaf and Inner are exposed in core/node.h precisely
// so these tests can seed faults.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/macros.h"
#include "core/ltree.h"

namespace ltree {

/// Reaches the tree's inner-node arena to leak a node.
class LTreeTestPeer {
 public:
  static Inner* AllocateInner(LTree* tree) {
    return tree->inner_arena_.Allocate();
  }
  static void ReleaseInner(LTree* tree, Inner* node) {
    tree->inner_arena_.Release(node);
  }
};

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
  Inner* internal = handles[0]->parent;
  const uint64_t saved = internal->leaf_count;
  internal->leaf_count = saved + 1;
  EXPECT_TRUE(tree->Validate().HasRule("leaf-count-sum"));
  internal->leaf_count = saved;
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(InvariantCheckerTest, DetectsBrokenParentPointer) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  Leaf* leaf = handles[2];
  Inner* saved = leaf->parent;
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
  Inner* root = const_cast<Inner*>(tree->root());
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

TEST(InvariantCheckerTest, DetectsLeakedInnerNode) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeTree(&handles);
  // Live in the inner arena but reachable from nowhere.
  Inner* leaked = LTreeTestPeer::AllocateInner(tree.get());
  const audit::Report report = tree->Validate();
  ASSERT_EQ(report.total(), 1u) << report.ToString();
  EXPECT_EQ(report.violations()[0].rule, "arena-conservation");
  EXPECT_NE(report.violations()[0].message.find("inner arena"),
            std::string::npos)
      << report.ToString();
  LTreeTestPeer::ReleaseInner(tree.get(), leaked);
  EXPECT_TRUE(tree->Validate().ok());
}

}  // namespace
}  // namespace ltree
