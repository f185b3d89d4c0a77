// Negative tests for the unified invariant auditor (core/validate.h).
//
// The positive direction — auditors stay clean across every scheme and
// workload — is covered implicitly by the whole suite (and explicitly by
// the LISTLAB_VALIDATE preset, which re-audits after every mutation). What
// nothing else covers is the other direction: a corrupted structure MUST
// be reported, with the right rule slug and a usable path. Each test here
// seeds one deliberate corruption and asserts the auditor names it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/ltree.h"
#include "core/node.h"
#include "core/validate.h"
#include "listlab/factory.h"

namespace ltree {
namespace {

std::vector<LeafCookie> MakeCookies(uint64_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

std::unique_ptr<LTree> MakeTree(uint64_t leaves) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  EXPECT_TRUE(tree->BulkLoad(MakeCookies(leaves)).ok());
  return tree;
}

// ---------------------------------------------------------------------------
// Report mechanics
// ---------------------------------------------------------------------------

TEST(ReportTest, EmptyReportIsOk) {
  audit::Report report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.total(), 0u);
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_EQ(report.ToString(), "ok");
}

TEST(ReportTest, ToStatusCarriesFirstViolationAndCount) {
  audit::Report report;
  report.Add("t:/0", "rule-a", "first");
  report.Add("t:/1", "rule-b", "second");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("rule-a"));
  EXPECT_TRUE(report.HasRule("rule-b"));
  EXPECT_FALSE(report.HasRule("rule-c"));
  const Status status = report.ToStatus();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("rule-a"), std::string::npos);
  EXPECT_NE(status.message().find("t:/0"), std::string::npos);
  EXPECT_NE(status.message().find("+1 more"), std::string::npos);
}

TEST(ReportTest, CapsViolationsAndCountsDropped) {
  audit::Report report;
  for (int i = 0; i < 100; ++i) {
    report.Add("t:/", "flood", "violation");
  }
  EXPECT_EQ(report.violations().size(), 64u);
  EXPECT_EQ(report.total(), 100u);
  EXPECT_NE(report.ToString().find("36 more"), std::string::npos);
}

TEST(ReportTest, AbsorbPrefixesPaths) {
  audit::Report inner;
  inner.Add("/leaf", "inner-rule", "nested");
  audit::Report outer;
  outer.Absorb(inner, "store:");
  ASSERT_EQ(outer.total(), 1u);
  EXPECT_EQ(outer.violations()[0].path, "store:/leaf");
  EXPECT_TRUE(outer.HasRule("inner-rule"));
}

// ---------------------------------------------------------------------------
// Seeded corruptions: the auditor must name each one
// ---------------------------------------------------------------------------

TEST(LTreeAuditTest, CleanTreeHasNoViolations) {
  auto tree = MakeTree(300);
  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LTreeAuditTest, DetectsSwappedLeafLabels) {
  auto tree = MakeTree(300);
  Leaf* first = tree->FirstLeaf();
  Leaf* second = tree->NextLeaf(first);
  ASSERT_NE(second, nullptr);
  std::swap(first->num, second->num);

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("label-order")) << report.ToString();
  // The swap also breaks the num(w) identity — both slugs must surface.
  EXPECT_TRUE(report.HasRule("label-identity")) << report.ToString();
  // The Status form carries the first violation's slug: the first leaf's
  // identity breaks before the second leaf's order does.
  const Status status = report.ToStatus();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("[label-identity]"), std::string::npos)
      << status.ToString();
}

TEST(LTreeAuditTest, DetectsBrokenParentLink) {
  auto tree = MakeTree(300);
  Leaf* leaf = tree->FirstLeaf();
  for (int i = 0; i < 10; ++i) leaf = tree->NextLeaf(leaf);
  Inner* const saved = leaf->parent;
  // Point anywhere but the real parent (a height-1 node, not the root).
  leaf->parent = const_cast<Inner*>(tree->root());

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("parent-link")) << report.ToString();
  leaf->parent = saved;  // restore so teardown walks a sane tree
}

TEST(LTreeAuditTest, DetectsWrongSubtreeLeafCount) {
  auto tree = MakeTree(300);
  Inner* root = const_cast<Inner*>(tree->root());
  ASSERT_FALSE(root->children.empty());
  Inner* child = static_cast<Inner*>(root->children[0]);
  child->leaf_count += 1;

  const audit::Report report = tree->Validate();
  // Wrong at the child (its children no longer sum to it) and at the root
  // (whose stored total now disagrees with the actual slot count).
  EXPECT_TRUE(report.HasRule("leaf-count-sum")) << report.ToString();
  child->leaf_count -= 1;
}

TEST(LTreeAuditTest, DetectsTombstoneAccountingDrift) {
  auto tree = MakeTree(300);
  Node* leaf = tree->FirstLeaf();
  // Tombstone a leaf behind the tree's back: num_live_leaves() is stale.
  ASSERT_FALSE(leaf->deleted);
  leaf->deleted = true;

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("live-count")) << report.ToString();
  leaf->deleted = false;
}

TEST(LTreeAuditTest, DetectsChildIndexMismatch) {
  auto tree = MakeTree(300);
  Inner* root = const_cast<Inner*>(tree->root());
  ASSERT_GE(root->children.size(), 2u);
  root->children[1]->index_in_parent = 0;

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("child-index")) << report.ToString();
  root->children[1]->index_in_parent = 1;
}

TEST(LTreeAuditTest, ViolationPathsAreStructural) {
  auto tree = MakeTree(300);
  Inner* root = const_cast<Inner*>(tree->root());
  Inner* child = static_cast<Inner*>(root->children[0]);
  child->leaf_count += 1;

  const audit::Report report = tree->Validate();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const audit::Violation& v : report.violations()) {
    if (v.rule == "leaf-count-sum" && v.path == "ltree:/0") found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
  child->leaf_count -= 1;
}

// ---------------------------------------------------------------------------
// Scheme-generic Validate(): every store self-audits clean after real work
// ---------------------------------------------------------------------------

TEST(StoreValidateTest, AllSchemesValidateCleanAfterMixedWorkload) {
  for (const char* spec :
       {"ltree:16:4", "ltree:16:4:purge", "virtual:16:4", "sequential",
        "gap:64", "bender"}) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<listlab::ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(500), &handles).ok()) << spec;
    for (int i = 0; i < 100; ++i) {
      auto h = store->InsertAfter(handles[i * 3], 1000 + i);
      ASSERT_TRUE(h.ok()) << spec;
      handles.push_back(*h);
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store->Erase(handles[i * 7]).ok()) << spec;
    }
    const audit::Report report = store->Validate();
    EXPECT_TRUE(report.ok()) << spec << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace ltree
