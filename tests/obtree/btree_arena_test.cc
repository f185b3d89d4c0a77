// Conservation and recycling guarantees of the counted B+-tree's node pool
// (the obtree mirror of tests/core/node_arena_test.cc):
//
//  * conservation — every node the pool ever handed out is either reachable
//    from the root or back on the free list, i.e.
//    arena_stats().live() == NodeCount(), across randomized insert/delete
//    scripts that exercise leaf/internal splits, borrow-left/right, merges,
//    root collapse and the empty-tree edge;
//  * recycling — Clear()+BulkBuild (the virtual L-Tree's root-split path)
//    and delete-then-insert churn are served by the free list, not fresh
//    chunks.
//
// This suite carries the obtree label, so CI's ASan+UBSan job
// (ctest -L "core|obtree") runs the whole merge/underflow path sanitized.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/epoch.h"
#include "obtree/counted_btree.h"

namespace ltree {
namespace obtree {
namespace {

std::vector<Entry> MakeEntries(uint64_t n, uint64_t stride = 2) {
  std::vector<Entry> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) entries.push_back({i * stride, i});
  return entries;
}

TEST(BTreeArenaTest, EmptyTreeHasNoTraffic) {
  CountedBTree tree(4);
  EXPECT_EQ(tree.arena_stats().TotalAllocs(), 0u);
  EXPECT_EQ(tree.arena_stats().live(), 0u);
  EXPECT_EQ(tree.NodeCount(), 0u);
}

TEST(BTreeArenaTest, InsertDeleteRoundTripConserves) {
  CountedBTree tree(4);
  ASSERT_TRUE(tree.Insert(1, 10).ok());
  EXPECT_EQ(tree.arena_stats().live(), 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  ASSERT_TRUE(tree.Delete(1).ok());
  // Deleting the last entry releases the root leaf back to the pool.
  EXPECT_EQ(tree.arena_stats().live(), 0u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_EQ(tree.arena_stats().releases, 1u);
  // The next root comes off the free list, not a fresh chunk slot.
  ASSERT_TRUE(tree.Insert(2, 20).ok());
  EXPECT_EQ(tree.arena_stats().reused_allocs, 1u);
  EXPECT_EQ(tree.arena_stats().fresh_allocs, 1u);
}

// The randomized mirror of ArenaConservationTest: a delete-heavy script at
// minimum order, so underflow repair (borrow left/right, merge left/right,
// root collapse) runs constantly.
TEST(BTreeArenaTest, RandomInsertDeleteScriptConservesNodes) {
  CountedBTree tree(4);
  auto check = [&](const char* where, int step) {
    ASSERT_EQ(tree.arena_stats().live(), tree.NodeCount())
        << where << " at step " << step;
    ASSERT_TRUE(tree.Validate().ok()) << where << " at step " << step;
  };

  Rng rng(20260727);
  std::vector<Label> present;
  uint64_t next_key = 0;
  for (int step = 0; step < 4000; ++step) {
    // Delete-biased so the population keeps shrinking back through merges.
    if (!present.empty() && rng.Bernoulli(0.45)) {
      const size_t r = static_cast<size_t>(rng.Uniform(present.size()));
      std::swap(present[r], present.back());
      ASSERT_TRUE(tree.Delete(present.back()).ok());
      present.pop_back();
    } else {
      const Label key = next_key++;
      ASSERT_TRUE(tree.Insert(key, key).ok());
      present.push_back(key);
    }
    if (step % 100 == 0) check("mid script", step);
  }
  check("after script", 4000);
  EXPECT_EQ(tree.size(), present.size());

  // Merges released internal nodes and later inserts recycled them.
  EXPECT_GT(tree.arena_stats().releases, 0u);
  EXPECT_GT(tree.arena_stats().reused_allocs, 0u);

  // Drain to empty: every node the pool ever handed out comes back.
  std::sort(present.begin(), present.end());
  for (Label key : present) ASSERT_TRUE(tree.Delete(key).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_EQ(tree.arena_stats().live(), 0u);
  EXPECT_EQ(tree.arena_stats().releases, tree.arena_stats().TotalAllocs());
}

TEST(BTreeArenaTest, ReplaceRangeRecyclesThroughThePool) {
  CountedBTree tree(8);
  ASSERT_TRUE(tree.BulkBuild(MakeEntries(512)).ok());
  const PoolArenaStats before = tree.arena_stats();
  // Rewrite the middle half — the virtual L-Tree's relabel primitive.
  std::vector<Entry> replacement;
  for (uint64_t i = 0; i < 200; ++i) replacement.push_back({300 + i, i});
  ASSERT_TRUE(tree.ReplaceRange(256, 768, replacement).ok());
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.arena_stats().live(), tree.NodeCount());
  // The deletes merged nodes away and the re-inserts recycled them: real
  // release/reuse traffic, with no more than one extra chunk of growth.
  EXPECT_GT(tree.arena_stats().releases, before.releases);
  EXPECT_GT(tree.arena_stats().reused_allocs, before.reused_allocs);
  EXPECT_LE(tree.arena_stats().chunks, before.chunks + 1);
}

TEST(BTreeArenaTest, ClearThenBulkBuildReusesInsteadOfGrowing) {
  CountedBTree tree(8);
  ASSERT_TRUE(tree.BulkBuild(MakeEntries(2000)).ok());
  const PoolArenaStats first = tree.arena_stats();
  ASSERT_GT(first.fresh_allocs, 0u);

  // BulkBuild(Clear()) is what every virtual root split runs: the second
  // build must be served by the nodes the first one released.
  ASSERT_TRUE(tree.BulkBuild(MakeEntries(2000, 3)).ok());
  const PoolArenaStats second = tree.arena_stats();
  EXPECT_EQ(second.chunks, first.chunks);
  EXPECT_EQ(second.fresh_allocs, first.fresh_allocs);
  EXPECT_GT(second.reused_allocs, first.reused_allocs);
  EXPECT_EQ(second.live(), tree.NodeCount());
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BTreeArenaTest, MoveTransfersPoolOwnership) {
  CountedBTree tree(8);
  ASSERT_TRUE(tree.BulkBuild(MakeEntries(300)).ok());
  const uint64_t live = tree.arena_stats().live();
  ASSERT_GT(live, 0u);

  CountedBTree moved(std::move(tree));
  EXPECT_EQ(moved.arena_stats().live(), live);
  EXPECT_EQ(moved.arena_stats().live(), moved.NodeCount());
  ASSERT_TRUE(moved.Validate().ok());

  // The moved-from tree is empty with no pool (so the noexcept move never
  // allocates); every accessor stays safe and the tree stays usable.
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.arena_stats().TotalAllocs(), 0u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_EQ(tree.ApproxHeapBytes(), 0u);
  ASSERT_TRUE(tree.Insert(7, 7).ok());
  EXPECT_EQ(tree.arena_stats().live(), 1u);

  tree = std::move(moved);
  EXPECT_EQ(tree.arena_stats().live(), live);
  EXPECT_EQ(tree.arena_stats().live(), tree.NodeCount());
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(BTreeArenaTest, ApproxHeapBytesCoversChunksAndBuffers) {
  CountedBTree tree(16);
  EXPECT_EQ(tree.ApproxHeapBytes(), 0u);
  ASSERT_TRUE(tree.BulkBuild(MakeEntries(4096)).ok());
  // At least one chunk was opened, and every entry occupies a key slot and
  // a value slot somewhere in the leaves.
  EXPECT_GT(tree.arena_stats().chunks, 0u);
  EXPECT_GE(tree.ApproxHeapBytes(), 4096 * 2 * sizeof(uint64_t));
  // The slot stride is the node rounded up to whole cache lines, 1600 B, in
  // 256-slot chunks; PoolArena's line-tiling rule only changes strides of
  // nodes no wider than a line.
  EXPECT_EQ(tree.ApproxHeapBytes(), tree.arena_stats().chunks * 256 * 1600);
}

TEST(BTreeArenaTest, NodesAreCacheLineAligned) {
  // The node type is opaque, but with an epoch attached every node freed
  // by Clear() is retired instead of recycled — ForEachPending then hands
  // us the raw slot pointers of a whole multi-level tree, which must all
  // sit on 64-byte boundaries (the pool rounds a node wider than a line up
  // to whole lines; see PoolArena::kSlotStride).
  epoch::EpochManager epoch;
  CountedBTree tree(4);
  tree.set_epoch(&epoch);
  for (const Entry& e : MakeEntries(512)) {
    ASSERT_TRUE(tree.Insert(e.key, e.value).ok());
  }
  const uint64_t nodes = tree.NodeCount();
  ASSERT_GT(nodes, 100u) << "want a tree deep enough to cover many slots";

  tree.Clear();
  uint64_t seen = 0;
  epoch.ForEachPending([&](void* node) {
    ++seen;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(node) % 64, 0u) << node;
  });
  EXPECT_EQ(seen, nodes);
  epoch.ReclaimAllUnsafe();
}

}  // namespace
}  // namespace obtree
}  // namespace ltree
