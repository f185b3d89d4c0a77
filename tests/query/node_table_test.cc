#include "query/node_table.h"

#include <gtest/gtest.h>

namespace ltree {
namespace query {
namespace {

NodeRow Row(xml::NodeId id, const char* tag, Label start, Label end,
            int32_t level = 0, xml::NodeId parent = 0) {
  NodeRow r;
  r.id = id;
  r.tag = tag;
  r.region = {start, end};
  r.level = level;
  r.parent_id = parent;
  return r;
}

TEST(NodeTableTest, AddFinalizeQuery) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "b", 1, 4, 1, 1));
  t.Add(Row(3, "b", 5, 8, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(t.size(), 3u);
  auto bs = t.ByTag("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0]->id, 2u);
  EXPECT_EQ(bs[1]->id, 3u);
  EXPECT_TRUE(t.ByTag("zzz").empty());
  EXPECT_EQ(t.AllElements().size(), 3u);
  EXPECT_EQ(t.ChildrenOf(1).size(), 2u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(NodeTableTest, FinalizeRejectsBadRegions) {
  NodeTable t;
  t.Add(Row(1, "a", 5, 5));
  EXPECT_FALSE(t.Finalize().ok());
}

TEST(NodeTableTest, FinalizeRejectsDuplicateIds) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(1, "b", 1, 2));
  EXPECT_TRUE(t.Finalize().IsAlreadyExists());
}

TEST(NodeTableTest, DoubleFinalizeRejected) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_TRUE(t.Finalize().IsFailedPrecondition());
}

TEST(NodeTableTest, UpdateLabelsInPlace) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "a", 2, 3, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.UpdateStart(2, 4).ok());
  ASSERT_TRUE(t.UpdateEnd(2, 6).ok());
  EXPECT_EQ((*t.Find(2))->region, (Region{4, 6}));
  // Order-preserving update keeps the index sorted.
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_TRUE(t.UpdateStart(99, 1).IsNotFound());
}

TEST(NodeTableTest, InsertAfterFinalizeKeepsOrder) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 99));
  t.Add(Row(2, "b", 10, 19, 1, 1));
  t.Add(Row(3, "b", 30, 39, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Insert(Row(4, "b", 20, 29, 1, 1)).ok());
  auto bs = t.ByTag("b");
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0]->id, 2u);
  EXPECT_EQ(bs[1]->id, 4u);
  EXPECT_EQ(bs[2]->id, 3u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(NodeTableTest, EraseRemovesFromAllIndexes) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 99));
  t.Add(Row(2, "b", 10, 19, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Erase(2).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.ByTag("b").empty());
  EXPECT_TRUE(t.ChildrenOf(1).empty());
  EXPECT_TRUE(t.Find(2).status().IsNotFound());
  EXPECT_TRUE(t.Erase(2).IsNotFound());
}

TEST(NodeTableTest, TextRowsExcludedFromElementViews) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  NodeRow text = Row(2, "", 1, 2, 1, 1);
  text.is_text = true;
  t.Add(text);
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(t.AllElements().size(), 1u);
}

// Negative direction of NodeTable::Validate(). The relabel hooks write
// labels without checking them (a labeling scheme is trusted to preserve
// order), so they seed exactly the corruption a misbehaving scheme would.

TEST(NodeTableValidateTest, MalformedRegionIsReported) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "b", 1, 4, 1, 1));
  t.Add(Row(3, "b", 5, 8, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.UpdateEnd(2, 1).ok());  // [1, 1]: start == end

  const audit::Report report = t.Validate();
  EXPECT_TRUE(report.HasRule("region-shape")) << report.ToString();
  EXPECT_FALSE(report.HasRule("tag-bucket-order")) << report.ToString();
  ASSERT_EQ(report.total(), 1u) << report.ToString();
  EXPECT_EQ(report.violations()[0].path, "table:/b/2");

  ASSERT_TRUE(t.UpdateEnd(2, 4).ok());
  EXPECT_TRUE(t.Validate().ok());
}

TEST(NodeTableValidateTest, UnsortedTagBucketIsReported) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "b", 1, 4, 1, 1));
  t.Add(Row(3, "b", 5, 8, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.UpdateStart(3, 0).ok());  // [0, 8] now sorts before row 2

  const audit::Report report = t.Validate();
  EXPECT_TRUE(report.HasRule("tag-bucket-order")) << report.ToString();
  EXPECT_FALSE(report.HasRule("region-shape")) << report.ToString();
  ASSERT_EQ(report.total(), 1u) << report.ToString();
  EXPECT_EQ(report.violations()[0].path, "table:/b/3");

  ASSERT_TRUE(t.UpdateStart(3, 5).ok());
  EXPECT_TRUE(t.Validate().ok());
}

}  // namespace
}  // namespace query
}  // namespace ltree
