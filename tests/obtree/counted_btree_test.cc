// Unit tests for the counted B+-tree substrate.

#include "obtree/counted_btree.h"

#include <gtest/gtest.h>

#include <vector>

namespace ltree {
namespace obtree {
namespace {

TEST(CountedBTreeTest, EmptyTree) {
  CountedBTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Contains(5));
  EXPECT_EQ(tree.CountLess(100), 0u);
  EXPECT_FALSE(tree.Select(0).ok());
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(tree.Delete(1).IsNotFound());
  EXPECT_TRUE(tree.Update(1, 2).IsNotFound());
}

TEST(CountedBTreeTest, InsertAndLookup) {
  CountedBTree tree(4);
  ASSERT_TRUE(tree.Insert(10, 100).ok());
  ASSERT_TRUE(tree.Insert(5, 50).ok());
  ASSERT_TRUE(tree.Insert(20, 200).ok());
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(*tree.Lookup(10), 100u);
  EXPECT_EQ(*tree.Lookup(5), 50u);
  EXPECT_EQ(*tree.Lookup(20), 200u);
  EXPECT_TRUE(tree.Lookup(15).status().IsNotFound());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, DuplicateInsertRejected) {
  CountedBTree tree;
  ASSERT_TRUE(tree.Insert(1, 1).ok());
  EXPECT_TRUE(tree.Insert(1, 2).IsAlreadyExists());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Lookup(1), 1u);
}

TEST(CountedBTreeTest, UpdateChangesValueOnly) {
  CountedBTree tree;
  ASSERT_TRUE(tree.Insert(1, 1).ok());
  ASSERT_TRUE(tree.Update(1, 42).ok());
  EXPECT_EQ(*tree.Lookup(1), 42u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(CountedBTreeTest, ManySequentialInsertsSplit) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i, i * 2).ok());
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.Validate().ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(*tree.Lookup(i), i * 2);
  }
}

TEST(CountedBTreeTest, ReverseInserts) {
  CountedBTree tree(4);
  for (uint64_t i = 1000; i > 0; --i) {
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.CountLess(501), 500u);
}

TEST(CountedBTreeTest, CountLessAndRangeCount) {
  CountedBTree tree(8);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(i * 10, i).ok());  // keys 0,10,...,990
  }
  EXPECT_EQ(tree.CountLess(0), 0u);
  EXPECT_EQ(tree.CountLess(1), 1u);
  EXPECT_EQ(tree.CountLess(10), 1u);
  EXPECT_EQ(tree.CountLess(11), 2u);
  EXPECT_EQ(tree.CountLess(995), 100u);
  EXPECT_EQ(tree.RangeCount(0, 1000), 100u);
  EXPECT_EQ(tree.RangeCount(100, 200), 10u);
  EXPECT_EQ(tree.RangeCount(105, 106), 0u);
  EXPECT_EQ(tree.RangeCount(50, 50), 0u);
  EXPECT_EQ(tree.RangeCount(60, 50), 0u);
}

TEST(CountedBTreeTest, SelectMatchesOrder) {
  CountedBTree tree(4);
  std::vector<Label> keys{5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  for (Label k : keys) ASSERT_TRUE(tree.Insert(k, k * 100).ok());
  for (uint64_t r = 0; r < 10; ++r) {
    auto e = tree.Select(r);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->key, r);
    EXPECT_EQ(e->value, r * 100);
  }
  EXPECT_TRUE(tree.Select(10).status().IsOutOfRange());
}

TEST(CountedBTreeTest, LowerBoundAndPredecessor) {
  CountedBTree tree;
  for (Label k : {10, 20, 30}) ASSERT_TRUE(tree.Insert(k, k).ok());
  EXPECT_EQ(tree.LowerBound(5)->key, 10u);
  EXPECT_EQ(tree.LowerBound(10)->key, 10u);
  EXPECT_EQ(tree.LowerBound(11)->key, 20u);
  EXPECT_TRUE(tree.LowerBound(31).status().IsNotFound());
  EXPECT_TRUE(tree.Predecessor(10).status().IsNotFound());
  EXPECT_EQ(tree.Predecessor(11)->key, 10u);
  EXPECT_EQ(tree.Predecessor(30)->key, 20u);
  EXPECT_EQ(tree.Predecessor(1000)->key, 30u);
}

TEST(CountedBTreeTest, IteratorFullScan) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 257; ++i) {
    ASSERT_TRUE(tree.Insert(i * 3, i).ok());
  }
  uint64_t expect = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), expect * 3);
    EXPECT_EQ(it.value(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 257u);
}

TEST(CountedBTreeTest, SeekMidAndPastEnd) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(i * 2, i).ok());  // even keys 0..198
  }
  auto it = tree.Seek(51);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 52u);
  it = tree.Seek(198);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 198u);
  it = tree.Seek(199);
  EXPECT_FALSE(it.Valid());
}

TEST(CountedBTreeTest, ScanRange) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  auto entries = tree.Scan(10, 20);
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(entries.front().key, 10u);
  EXPECT_EQ(entries.back().key, 19u);
  EXPECT_TRUE(tree.Scan(100, 200).empty());
}

TEST(CountedBTreeTest, DeleteSimple) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  ASSERT_TRUE(tree.Delete(7).ok());
  EXPECT_EQ(tree.size(), 19u);
  EXPECT_FALSE(tree.Contains(7));
  EXPECT_TRUE(tree.Delete(7).IsNotFound());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, DeleteEverything) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Delete(i).ok()) << i;
    ASSERT_TRUE(tree.Validate().ok()) << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().Valid());
  // Tree is reusable afterwards.
  ASSERT_TRUE(tree.Insert(5, 5).ok());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(CountedBTreeTest, DeleteReverseOrder) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  for (uint64_t i = 100; i > 0; --i) {
    ASSERT_TRUE(tree.Delete(i - 1).ok());
    ASSERT_TRUE(tree.Validate().ok());
  }
  EXPECT_EQ(tree.size(), 0u);
}

TEST(CountedBTreeTest, BulkBuildMatchesInserts) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 1234; ++i) entries.push_back({i * 7, i});
  CountedBTree tree(16);
  ASSERT_TRUE(tree.BulkBuild(entries).ok());
  EXPECT_EQ(tree.size(), 1234u);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.ScanAll(), entries);
  // Post-build mutations work.
  ASSERT_TRUE(tree.Insert(3, 999).ok());
  ASSERT_TRUE(tree.Delete(0).ok());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, BulkBuildRejectsUnsorted) {
  std::vector<Entry> entries{{3, 0}, {1, 1}};
  CountedBTree tree;
  EXPECT_TRUE(tree.BulkBuild(entries).IsInvalidArgument());
  std::vector<Entry> dup{{3, 0}, {3, 1}};
  EXPECT_TRUE(tree.BulkBuild(dup).IsInvalidArgument());
}

TEST(CountedBTreeTest, BulkBuildSmallSizes) {
  for (size_t n : {0, 1, 2, 3, 4, 5, 8, 16, 17}) {
    std::vector<Entry> entries;
    for (uint64_t i = 0; i < n; ++i) entries.push_back({i, i});
    CountedBTree tree(4);
    ASSERT_TRUE(tree.BulkBuild(entries).ok()) << n;
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.Validate().ok()) << n;
  }
}

TEST(CountedBTreeTest, ReplaceRangeBasic) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(tree.Insert(i * 10, i).ok());
  // Replace keys in [20, 60) (20,30,40,50) by two denser keys.
  std::vector<Entry> repl{{25, 100}, {26, 101}};
  ASSERT_TRUE(tree.ReplaceRange(20, 60, repl).ok());
  EXPECT_EQ(tree.size(), 8u);
  EXPECT_FALSE(tree.Contains(20));
  EXPECT_FALSE(tree.Contains(50));
  EXPECT_EQ(*tree.Lookup(25), 100u);
  EXPECT_EQ(*tree.Lookup(26), 101u);
  EXPECT_TRUE(tree.Contains(10));
  EXPECT_TRUE(tree.Contains(60));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, ReplaceRangeValidation) {
  CountedBTree tree;
  ASSERT_TRUE(tree.Insert(5, 5).ok());
  std::vector<Entry> outside{{99, 0}};
  EXPECT_TRUE(tree.ReplaceRange(0, 10, outside).IsInvalidArgument());
  std::vector<Entry> unsorted{{7, 0}, {6, 0}};
  EXPECT_TRUE(tree.ReplaceRange(0, 10, unsorted).IsInvalidArgument());
  EXPECT_TRUE(tree.ReplaceRange(10, 0, {}).IsInvalidArgument());  // lo > hi
  // An entry can never lie inside an empty range.
  std::vector<Entry> one{{10, 0}};
  EXPECT_TRUE(tree.ReplaceRange(10, 10, one).IsInvalidArgument());
}

TEST(CountedBTreeTest, ReplaceRangeEmptyRangeIsNoop) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  ASSERT_TRUE(tree.ReplaceRange(5, 5, {}).ok());
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_TRUE(tree.Contains(5));
  EXPECT_TRUE(tree.Validate().ok());
  // Also a no-op on an empty tree.
  CountedBTree empty(4);
  ASSERT_TRUE(empty.ReplaceRange(0, 0, {}).ok());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(CountedBTreeTest, ReplaceRangeEmptyReplacement) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  ASSERT_TRUE(tree.ReplaceRange(5, 15, {}).ok());
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_TRUE(tree.Contains(4));
  EXPECT_FALSE(tree.Contains(5));
  EXPECT_FALSE(tree.Contains(14));
  EXPECT_TRUE(tree.Contains(15));
}

TEST(CountedBTreeTest, ReplaceRangeEraseToEmptyAndRefill) {
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  // Pure range erase of everything empties the tree.
  ASSERT_TRUE(tree.ReplaceRange(0, 100, {}).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Validate().ok());
  // A replacement into the now-empty tree rebuilds it.
  std::vector<Entry> repl;
  for (uint64_t i = 0; i < 9; ++i) repl.push_back({i * 3, i});
  ASSERT_TRUE(tree.ReplaceRange(0, 100, repl).ok());
  EXPECT_EQ(tree.size(), 9u);
  EXPECT_EQ(*tree.Lookup(24), 8u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, ReplaceRangeGrowsAndShrinksTheTree) {
  // A replacement much denser than the original range must grow the tree
  // (possibly in height), and a sparse one must shrink it, with counts and
  // occupancy intact either way.
  CountedBTree tree(4);
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(tree.Insert(i * 100, i).ok());
  std::vector<Entry> dense;
  for (uint64_t i = 0; i < 400; ++i) dense.push_back({1000 + i, i});
  ASSERT_TRUE(tree.ReplaceRange(1000, 2000, dense).ok());
  EXPECT_EQ(tree.size(), 50u - 10u + 400u);
  EXPECT_TRUE(tree.Validate().ok());
  std::vector<Entry> sparse{{1500, 7u}};
  ASSERT_TRUE(tree.ReplaceRange(1000, 2000, sparse).ok());
  EXPECT_EQ(tree.size(), 50u - 10u + 1u);
  EXPECT_EQ(*tree.Lookup(1500), 7u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(CountedBTreeTest, MoveConstruction) {
  CountedBTree a(4);
  ASSERT_TRUE(a.Insert(1, 1).ok());
  CountedBTree b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  CountedBTree c(8);
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(*c.Lookup(1), 1u);
}


TEST(CountedBTreeTest, BulkBuildAllSizesMeetOccupancy) {
  // Regression: a small tail used to be split into two under-minimum
  // chunks (e.g. 49 entries at order 64).
  for (uint32_t order : {4u, 8u, 16u, 64u}) {
    for (size_t n = 1; n <= 3 * order + 5; ++n) {
      std::vector<Entry> entries;
      for (uint64_t i = 0; i < n; ++i) entries.push_back({i, i});
      CountedBTree tree(order);
      ASSERT_TRUE(tree.BulkBuild(entries).ok());
      ASSERT_TRUE(tree.Validate().ok())
          << "order=" << order << " n=" << n;
      ASSERT_EQ(tree.size(), n);
    }
    // A few larger sizes around multiples of order^2.
    for (size_t n : {size_t{order * order - 1}, size_t{order * order},
                     size_t{order * order + 1}, size_t{order * order + order / 2}}) {
      std::vector<Entry> entries;
      for (uint64_t i = 0; i < n; ++i) entries.push_back({i, i});
      CountedBTree tree(order);
      ASSERT_TRUE(tree.BulkBuild(entries).ok());
      ASSERT_TRUE(tree.Validate().ok())
          << "order=" << order << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace obtree
}  // namespace ltree
