// The headline property of Section 4.2: the virtual L-Tree runs the same
// maintenance algorithm as the materialized tree, so identical operation
// streams must produce identical label sequences at every step.
//
// Operations are addressed by *rank* (slot position), which is well-defined
// in both representations even as labels change.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/ltree.h"
#include "virtual_ltree/virtual_ltree.h"

namespace ltree {
namespace {

struct ParamCase {
  uint32_t f;
  uint32_t s;
  bool purge;
};

class EquivalenceTest : public ::testing::TestWithParam<ParamCase> {};

// Drives both structures through the same rank-addressed op stream and
// compares the full label sequence after every operation.
TEST_P(EquivalenceTest, RandomSingleInsertsAndDeletes) {
  const ParamCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s, .purge_tombstones_on_split = pc.purge};
  auto mt = LTree::Create(params).ValueOrDie();
  auto vt = VirtualLTree::Create(params).ValueOrDie();

  const size_t kInitial = 16;
  std::vector<LeafCookie> cookies(kInitial);
  std::iota(cookies.begin(), cookies.end(), 0);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(mt->BulkLoad(cookies, &handles).ok());
  ASSERT_TRUE(vt->BulkLoad(cookies).ok());
  ASSERT_EQ(mt->AllLabels(), vt->AllLabels());

  Rng rng(pc.f * 1000 + pc.s * 10 + (pc.purge ? 1 : 0));
  // Rank-ordered list of materialized handles, mirroring slot order.
  std::vector<LTree::LeafHandle> slots = handles;

  const int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t action = rng.Uniform(10);
    if (action < 7 || slots.size() < 4) {
      // Insert after a random slot.
      const size_t r = static_cast<size_t>(rng.Uniform(slots.size()));
      const LeafCookie c = 1000 + static_cast<LeafCookie>(op);
      auto mh = mt->InsertAfter(slots[r], c);
      ASSERT_TRUE(mh.ok());
      auto vl = vt->InsertAfter(*vt->SelectSlot(r), c);
      ASSERT_TRUE(vl.ok());
      slots.insert(slots.begin() + static_cast<long>(r) + 1, *mh);
      ASSERT_EQ(mt->label(*mh), *vl) << "op " << op;
    } else if (action < 8) {
      // Insert before a random slot.
      const size_t r = static_cast<size_t>(rng.Uniform(slots.size()));
      const LeafCookie c = 5000 + static_cast<LeafCookie>(op);
      auto mh = mt->InsertBefore(slots[r], c);
      ASSERT_TRUE(mh.ok());
      auto vl = vt->InsertBefore(*vt->SelectSlot(r), c);
      ASSERT_TRUE(vl.ok());
      slots.insert(slots.begin() + static_cast<long>(r), *mh);
      ASSERT_EQ(mt->label(*mh), *vl) << "op " << op;
    } else {
      // Delete a random live slot (tombstone).
      const size_t r = static_cast<size_t>(rng.Uniform(slots.size()));
      if (!mt->deleted(slots[r])) {
        ASSERT_TRUE(mt->MarkDeleted(slots[r]).ok());
        ASSERT_TRUE(vt->MarkDeleted(*vt->SelectSlot(r)).ok());
      }
    }

    if (pc.purge) {
      // Purging drops tombstoned slots during rebuilds; handles into the
      // materialized tree die, so resync the slot list from iteration.
      if (mt->num_slots() != slots.size()) {
        slots.clear();
        for (auto leaf = mt->FirstLeaf(); leaf != nullptr;
             leaf = mt->NextLeaf(leaf)) {
          slots.push_back(leaf);
        }
      }
    }

    ASSERT_EQ(mt->num_slots(), vt->num_slots()) << "op " << op;
    ASSERT_EQ(mt->AllLabels(), vt->AllLabels()) << "op " << op;
    ASSERT_EQ(mt->height(), vt->height()) << "op " << op;
    if (op % 50 == 0) {
      ASSERT_TRUE(mt->Validate().ok()) << "op " << op;
      ASSERT_TRUE(vt->Validate().ok()) << "op " << op;
    }
  }
  // Structural event counts agree for single-insert streams.
  EXPECT_EQ(mt->stats().rebalances, vt->stats().rebalances);
  EXPECT_EQ(mt->stats().root_splits, vt->stats().root_splits);
}

TEST_P(EquivalenceTest, BatchInsertStreams) {
  const ParamCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s, .purge_tombstones_on_split = pc.purge};
  auto mt = LTree::Create(params).ValueOrDie();
  auto vt = VirtualLTree::Create(params).ValueOrDie();

  std::vector<LeafCookie> cookies(8);
  std::iota(cookies.begin(), cookies.end(), 0);
  ASSERT_TRUE(mt->BulkLoad(cookies).ok());
  ASSERT_TRUE(vt->BulkLoad(cookies).ok());

  Rng rng(pc.f * 131 + pc.s);
  LeafCookie next_cookie = 100;
  for (int round = 0; round < 60; ++round) {
    const uint64_t slots = mt->num_slots();
    const size_t r = static_cast<size_t>(rng.Uniform(slots));
    const uint64_t batch_size = 1 + rng.Uniform(40);
    std::vector<LeafCookie> batch(batch_size);
    std::iota(batch.begin(), batch.end(), next_cookie);
    next_cookie += batch_size;

    // Find the r-th materialized leaf.
    LTree::LeafHandle pos = mt->FirstLeaf();
    for (size_t i = 0; i < r; ++i) pos = mt->NextLeaf(pos);

    ASSERT_TRUE(mt->InsertBatchAfter(pos, batch).ok()) << "round " << round;
    ASSERT_TRUE(vt->InsertBatchAfter(*vt->SelectSlot(r), batch).ok())
        << "round " << round;

    ASSERT_EQ(mt->AllLabels(), vt->AllLabels()) << "round " << round;
    ASSERT_EQ(mt->height(), vt->height()) << "round " << round;
    ASSERT_TRUE(mt->Validate().ok()) << "round " << round;
    ASSERT_TRUE(vt->Validate().ok()) << "round " << round;
  }
  // The plan/apply pipeline makes the same coalescing decisions on both
  // representations, so the full structural accounting stays in lockstep
  // even through batch escalations.
  EXPECT_EQ(mt->stats().rebalances, vt->stats().rebalances);
  EXPECT_EQ(mt->stats().root_splits, vt->stats().root_splits);
  EXPECT_EQ(mt->stats().escalations, vt->stats().escalations);
  EXPECT_EQ(mt->stats().relabel_passes, vt->stats().relabel_passes);
  EXPECT_EQ(mt->stats().coalesced_regions, vt->stats().coalesced_regions);
  // Exactly one relabel pass per batch.
  EXPECT_EQ(mt->stats().relabel_passes, 60u);
}

TEST_P(EquivalenceTest, AppendOnlyStream) {
  const ParamCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s, .purge_tombstones_on_split = pc.purge};
  auto mt = LTree::Create(params).ValueOrDie();
  auto vt = VirtualLTree::Create(params).ValueOrDie();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(mt->PushBack(static_cast<LeafCookie>(i)).ok());
    ASSERT_TRUE(vt->PushBack(static_cast<LeafCookie>(i)).ok());
    ASSERT_EQ(mt->AllLabels(), vt->AllLabels()) << "i=" << i;
  }
  EXPECT_EQ(mt->stats().rebalances, vt->stats().rebalances);
  EXPECT_EQ(mt->stats().root_splits, vt->stats().root_splits);
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, EquivalenceTest,
    ::testing::Values(ParamCase{4, 2, false}, ParamCase{4, 2, true},
                      ParamCase{6, 2, false}, ParamCase{8, 2, false},
                      ParamCase{8, 4, false}, ParamCase{12, 3, false},
                      ParamCase{16, 4, false}, ParamCase{16, 4, true},
                      ParamCase{32, 2, false}),
    [](const auto& info) {
      // Appends, not a chained `+`: GCC 12 raises a false -Wrestrict on
      // "literal" + std::string in Release.
      std::string name = "f";
      name += std::to_string(info.param.f);
      name += "s";
      name += std::to_string(info.param.s);
      if (info.param.purge) name += "purge";
      return name;
    });

}  // namespace
}  // namespace ltree
