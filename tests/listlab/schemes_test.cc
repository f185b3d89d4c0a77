// Behavioural tests for the individual labeling schemes behind the
// LabelStore interface.

#include <gtest/gtest.h>

#include "listlab/bender_list.h"
#include "listlab/factory.h"
#include "listlab/gap_list.h"
#include "listlab/ltree_store.h"
#include "listlab/sequential_list.h"
#include "testing/label_scan.h"
#include "workload/update_stream.h"

namespace ltree {
namespace listlab {
namespace {

TEST(SequentialListTest, BulkLoadIsConsecutive) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(5, &ids).ok());
  EXPECT_EQ(ScanLabels(list), (std::vector<Label>{0, 1, 2, 3, 4}));
  EXPECT_EQ(list.size(), 5u);
  EXPECT_EQ(list.erase_semantics(), EraseSemantics::kPhysical);
  EXPECT_TRUE(list.Validate().ok());
}

TEST(SequentialListTest, MidInsertShiftsSuffix) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  // Insert after position 3: labels 4..9 shift.
  auto id = list.InsertAfter(ids[3], 77);
  ASSERT_TRUE(id.ok());
  const LabelStore::ReadGuard guard = list.QuiescentRead();
  EXPECT_EQ(*list.LabelOf(guard, *id), 4u);
  EXPECT_EQ(*list.CookieOf(guard, *id), 77u);
  EXPECT_EQ(list.stats().items_relabeled, 6u);
  EXPECT_EQ(ScanLabels(list),
            (std::vector<Label>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_TRUE(list.Validate().ok());
}

TEST(SequentialListTest, AppendIsFree) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.PushBack(0).ok());
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(SequentialListTest, PushFrontShiftsEverything) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.InsertBefore(ids.front(), 0).ok());
  EXPECT_EQ(list.stats().items_relabeled, 10u);
}

TEST(SequentialListTest, EraseLeavesGapThatAbsorbsShift) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.Erase(ids[5]).ok());  // label 5 vacated
  ASSERT_TRUE(list.InsertAfter(ids[2], 0).ok());
  // Shift stops at the vacated slot: labels 3,4 move to 4,5.
  EXPECT_EQ(list.stats().items_relabeled, 2u);
  EXPECT_TRUE(list.Validate().ok());
}

TEST(SequentialListTest, ErasedHandleRejected) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(3, &ids).ok());
  ASSERT_TRUE(list.Erase(ids[1]).ok());
  EXPECT_TRUE(list.Erase(ids[1]).IsFailedPrecondition())
      << "double erase is FailedPrecondition in every scheme";
  EXPECT_TRUE(list.InsertAfter(ids[1], 0).status().IsNotFound());
  EXPECT_TRUE(list.Erase(999).IsNotFound());
}

TEST(GapListTest, BulkLoadLeavesGaps) {
  GapList list(10);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(4, &ids).ok());
  EXPECT_EQ(ScanLabels(list), (std::vector<Label>{0, 10, 20, 30}));
}

TEST(GapListTest, MidpointInsertNoRelabel) {
  GapList list(10);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(4, &ids).ok());
  auto id = list.InsertAfter(ids[1], 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*list.LabelOf(list.QuiescentRead(), *id), 15u);
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(GapListTest, ExhaustedGapRenumbersAll) {
  GapList list(4);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(8, &ids).ok());
  // Hammer one gap until it renumbers: gap 4 fits 2 midpoint inserts.
  ItemHandle pos = ids[0];
  uint64_t relabels_before = list.stats().items_relabeled;
  int renumbers = 0;
  for (int i = 0; i < 10; ++i) {
    auto id = list.InsertAfter(pos, 0);
    ASSERT_TRUE(id.ok());
    if (list.stats().rebalances > static_cast<uint64_t>(renumbers)) {
      ++renumbers;
    }
    ASSERT_TRUE(list.Validate().ok());
  }
  EXPECT_GT(renumbers, 0);
  EXPECT_GT(list.stats().items_relabeled, relabels_before);
}

TEST(GapListTest, AppendExtends) {
  GapList list(16);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  auto id = list.PushBack(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*list.LabelOf(list.QuiescentRead(), *id), 32u);
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(GapListTest, FailedBatchRollsBack) {
  // Fallback batches are all-or-nothing: the third append overflows the
  // 64-bit label space, so the first two must be erased again.
  GapList list(uint64_t{1} << 62);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  const std::vector<LeafCookie> batch{9, 10, 11};
  std::vector<ItemHandle> fresh;
  auto st = list.PushBackBatch(batch, &fresh);
  EXPECT_TRUE(st.IsCapacityExceeded());
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(ScanLabels(list).size(), 2u);
  EXPECT_TRUE(list.Validate().ok());
}

TEST(GapListTest, PushFrontUsesHalfGap) {
  GapList list(16);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  ASSERT_TRUE(list.InsertBefore(ids.front(), 0).ok());
  EXPECT_EQ(ScanLabels(list).front(), 0u);
  EXPECT_TRUE(list.Validate().ok());
}

TEST(BenderListTest, BulkLoadEvenSpread) {
  BenderList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(16, &ids).ok());
  auto labels = ScanLabels(list);
  ASSERT_EQ(labels.size(), 16u);
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  EXPECT_TRUE(list.Validate().ok());
}

TEST(BenderListTest, HotspotInsertsStayCheap) {
  BenderList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(64, &ids).ok());
  ItemHandle pos = ids[32];
  for (int i = 0; i < 2000; ++i) {
    auto id = list.InsertAfter(pos, 0);
    ASSERT_TRUE(id.ok());
    if (i % 200 == 0) {
      ASSERT_TRUE(list.Validate().ok());
    }
  }
  EXPECT_TRUE(list.Validate().ok());
  // Amortized relabels should be polylog, far below n/2 = ~1000.
  EXPECT_LT(list.stats().RelabelsPerInsert(), 100.0);
}

TEST(BenderListTest, UniverseGrowsWhenDense) {
  BenderList list(BenderList::Options{.initial_bits = 6, .root_density = 0.5});
  ASSERT_TRUE(list.BulkLoad(8, nullptr).ok());
  const uint32_t bits_before = list.universe_bits();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(list.PushBack(0).ok());
  }
  EXPECT_GT(list.universe_bits(), bits_before);
  EXPECT_TRUE(list.Validate().ok());
}

TEST(BenderListTest, EmptyListPushBack) {
  BenderList list;
  auto id = list.PushBack(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(list.size(), 1u);
  auto id2 = list.InsertBefore(*id, 0);
  ASSERT_TRUE(id2.ok());
  auto labels = ScanLabels(list);
  EXPECT_LT(labels[0], labels[1]);
}

TEST(LTreeStoreTest, WrapsTree) {
  auto m = LTreeStore::Make(Params{.f = 8, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(16, &ids).ok());
  EXPECT_EQ(m->size(), 16u);
  EXPECT_EQ(m->erase_semantics(), EraseSemantics::kTombstone);
  auto id = m->InsertAfter(ids[4], 1234);
  ASSERT_TRUE(id.ok());
  const LabelStore::ReadGuard guard = m->QuiescentRead();
  EXPECT_GT(*m->LabelOf(guard, *id), *m->LabelOf(guard, ids[4]));
  EXPECT_LT(*m->LabelOf(guard, *id), *m->LabelOf(guard, ids[5]));
  EXPECT_EQ(*m->CookieOf(guard, *id), 1234u);
  EXPECT_EQ(*m->CookieOf(guard, ids[3]), 3u);
  ASSERT_TRUE(m->Erase(ids[0]).ok());
  EXPECT_EQ(m->size(), 16u);
  EXPECT_TRUE(m->Erase(ids[0]).IsFailedPrecondition());
  EXPECT_EQ(m->stats().inserts, 1u);
  EXPECT_TRUE(m->Validate().ok());
}

TEST(LTreeStoreTest, PurgeSpecKeepsHandlesSafe) {
  auto m = MakeLabelStore("ltree:4:2:purge").ValueOrDie();
  EXPECT_EQ(m->erase_semantics(), EraseSemantics::kTombstonePurge);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  ASSERT_TRUE(m->Erase(ids[2]).ok());
  ASSERT_TRUE(m->Erase(ids[3]).ok());
  // Force splits around the tombstones so they get purged.
  ItemHandle pos = ids[1];
  for (int i = 0; i < 64; ++i) {
    auto fresh = m->InsertAfter(pos, 100 + i);
    ASSERT_TRUE(fresh.ok());
  }
  // The erased handles answer consistently even though their leaves are
  // gone (InsertContractTest.ReadsAgreeUnderBothGuards covers the reads).
  EXPECT_GT(m->stats().tombstones_purged, 0u);
  EXPECT_TRUE(m->Erase(ids[3]).IsFailedPrecondition());
  EXPECT_TRUE(m->Validate().ok());
}

TEST(LTreeStoreTest, BatchInsertIsOneRebalance) {
  auto m = LTreeStore::Make(Params{.f = 8, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  const std::vector<LeafCookie> cookies{50, 51, 52, 53, 54};
  std::vector<ItemHandle> fresh;
  ASSERT_TRUE(m->InsertBatchAfter(ids[3], cookies, &fresh).ok());
  ASSERT_EQ(fresh.size(), 5u);
  EXPECT_EQ(m->stats().relabel_passes, 1u);
  // Batch items sit between ids[3] and ids[4], in batch order.
  const LabelStore::ReadGuard guard = m->QuiescentRead();
  Label prev = *m->LabelOf(guard, ids[3]);
  for (size_t i = 0; i < fresh.size(); ++i) {
    const Label l = *m->LabelOf(guard, fresh[i]);
    EXPECT_GT(l, prev);
    EXPECT_EQ(*m->CookieOf(guard, fresh[i]), cookies[i]);
    prev = l;
  }
  EXPECT_LT(prev, *m->LabelOf(guard, ids[4]));
  EXPECT_TRUE(m->Validate().ok());
}

TEST(VirtualLTreeStoreTest, TracksLabelsAcrossRelabeling) {
  auto m = VirtualLTreeStore::Make(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  // Force splits; the handle -> label map must stay consistent.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[3], 1000 + i).ok());
  }
  auto labels = ScanLabels(*m);
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  // ids[3] and ids[4] must still be in relative order, with their cookies.
  const LabelStore::ReadGuard guard = m->QuiescentRead();
  EXPECT_LT(*m->LabelOf(guard, ids[3]), *m->LabelOf(guard, ids[4]));
  EXPECT_EQ(*m->CookieOf(guard, ids[3]), 3u);
  EXPECT_TRUE(m->Validate().ok());
}

TEST(VirtualLTreeStoreTest, BatchMatchesMaterialized) {
  // The Section 4.1 batch path must produce identical labels on both
  // L-Tree variants.
  auto mat = MakeLabelStore("ltree:4:2").ValueOrDie();
  auto virt = MakeLabelStore("virtual:4:2").ValueOrDie();
  for (LabelStore* m : {mat.get(), virt.get()}) {
    std::vector<ItemHandle> ids;
    ASSERT_TRUE(m->BulkLoad(6, &ids).ok());
    const std::vector<LeafCookie> batch{20, 21, 22, 23};
    ASSERT_TRUE(m->InsertBatchAfter(ids[2], batch, nullptr).ok());
    EXPECT_EQ(m->stats().relabel_passes, 1u) << m->name();
  }
  EXPECT_EQ(ScanLabels(*mat), ScanLabels(*virt));
}

TEST(VirtualLTreeStoreTest, DoubleEraseFailedPrecondition) {
  auto m = VirtualLTreeStore::Make(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(4, &ids).ok());
  ASSERT_TRUE(m->Erase(ids[1]).ok());
  EXPECT_TRUE(m->Erase(ids[1]).IsFailedPrecondition());
  EXPECT_TRUE(m->Erase(12345).IsNotFound());
}

TEST(FactoryTest, BuildsEverySpec) {
  for (const char* spec :
       {"sequential", "gap:64", "bender", "bender:0.75", "ltree:16:4",
        "ltree:16:4:purge", "virtual:8:2", "virtual:8:2:purge"}) {
    auto m = MakeLabelStore(spec);
    ASSERT_TRUE(m.ok()) << spec;
    ASSERT_TRUE((*m)->BulkLoad(4, nullptr).ok()) << spec;
    EXPECT_EQ((*m)->size(), 4u) << spec;
  }
}

TEST(FactoryTest, RejectsBadSpecs) {
  EXPECT_FALSE(MakeLabelStore("nope").ok());
  EXPECT_FALSE(MakeLabelStore("gap").ok());
  EXPECT_FALSE(MakeLabelStore("gap:1").ok());
  EXPECT_FALSE(MakeLabelStore("bender:0").ok());
  EXPECT_FALSE(MakeLabelStore("bender:1.5").ok());
  EXPECT_FALSE(MakeLabelStore("ltree:16").ok());
  EXPECT_FALSE(MakeLabelStore("ltree:5:2").ok());
  EXPECT_FALSE(MakeLabelStore("ltree:16:4:oops").ok());
  EXPECT_FALSE(MakeLabelStore("sequential:1").ok());
}

// The RelabelListener must fire for exactly the items whose labels change,
// on every scheme.
class CountingListener : public RelabelListener {
 public:
  void OnRelabel(LeafCookie cookie, Label old_label,
                 Label new_label) override {
    (void)cookie;
    EXPECT_NE(old_label, new_label);
    ++events;
  }
  uint64_t events = 0;
};

class ListenerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ListenerTest, RelabelEventsMatchStats) {
  auto m = MakeLabelStore(GetParam()).ValueOrDie();
  CountingListener listener;
  m->set_listener(&listener);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(16, &ids).ok());
  EXPECT_EQ(listener.events, 0u) << "bulk load must not fire the listener";
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[7], 100 + i).ok());
  }
  EXPECT_EQ(listener.events, m->stats().items_relabeled) << m->name();
}

INSTANTIATE_TEST_SUITE_P(Schemes, ListenerTest,
                         ::testing::Values("sequential", "gap:16", "bender",
                                           "ltree:4:2", "virtual:4:2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

// The listener hears about live items only: once an item's OnErase has
// fired, no later OnRelabel or OnErase may carry its cookie, even when a
// split rebuilds the region holding its tombstone.
class RecordingListener : public RelabelListener {
 public:
  void OnRelabel(LeafCookie cookie, Label, Label) override {
    relabeled.push_back(cookie);
  }
  void OnErase(LeafCookie cookie, Label) override { erased.push_back(cookie); }
  std::vector<LeafCookie> relabeled;
  std::vector<LeafCookie> erased;
};

class ListenerContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ListenerContractTest, ErasedItemsNeverFireAgain) {
  auto m = MakeLabelStore(GetParam()).ValueOrDie();
  RecordingListener listener;
  m->set_listener(&listener);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(64, &ids).ok());  // cookies 0..63

  // Erase a band in the middle; each erase reports its own cookie once.
  std::vector<LeafCookie> band;
  for (LeafCookie c = 20; c < 36; ++c) {
    ASSERT_TRUE(m->Erase(ids[c]).ok());
    band.push_back(c);
  }
  EXPECT_EQ(listener.erased, band) << m->name();
  listener.relabeled.clear();
  listener.erased.clear();

  // Pile inserts onto both edges of the band until splits rebuild it.
  const uint64_t relabeled_before = m->stats().items_relabeled;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[19], 1000 + 2 * i).ok());
    ASSERT_TRUE(m->InsertBefore(ids[36], 1001 + 2 * i).ok());
  }
  ASSERT_TRUE(m->Validate().ok()) << m->name();
  EXPECT_TRUE(listener.erased.empty()) << m->name();
  for (const LeafCookie cookie : listener.relabeled) {
    ASSERT_FALSE(cookie >= 20 && cookie < 36)
        << m->name() << ": OnRelabel for erased cookie " << cookie;
  }
  // Tombstone slots still count as relabeled (the paper's cost), so plain
  // tombstoning schemes report more relabels than the listener heard.
  const uint64_t relabeled = m->stats().items_relabeled - relabeled_before;
  if (m->erase_semantics() == EraseSemantics::kTombstone) {
    EXPECT_GT(relabeled, listener.relabeled.size()) << m->name();
  } else {
    EXPECT_GE(relabeled, listener.relabeled.size()) << m->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, ListenerContractTest,
                         ::testing::Values("sequential", "gap:16", "bender",
                                           "bender:0.75", "ltree:4:2",
                                           "ltree:4:2:purge", "virtual:4:2",
                                           "virtual:4:2:purge"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Seed-golden maintenance stats: the paper-fidelity gate for perf work.
// The expected numbers were captured from the seed (pre-arena) build over a
// fixed uniform insert stream; any optimization of the L-Tree hot path must
// keep them bit-identical, since the paper's cost accounting counts node
// accesses, not wall time.
// ---------------------------------------------------------------------------

struct GoldenSweep {
  const char* spec;
  uint64_t items_relabeled;
  uint64_t rebalances;
  uint32_t label_bits;
};

class GoldenSweepTest : public ::testing::TestWithParam<GoldenSweep> {};

TEST_P(GoldenSweepTest, UniformStreamStatsMatchSeed) {
  const GoldenSweep& want = GetParam();
  auto store = MakeLabelStore(want.spec).ValueOrDie();
  std::vector<ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(500, &handles).ok());
  store->ResetStats();
  workload::UpdateStream stream(workload::StreamOptions{
      .kind = workload::StreamKind::kUniform, .seed = 77});
  for (uint64_t i = 0; i < 2000; ++i) {
    const auto op = stream.Next(handles.size());
    auto h = store->InsertAfter(handles[op.rank], 500 + i);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  ASSERT_TRUE(store->Validate().ok());
  const MaintStats st = store->stats();
  EXPECT_EQ(st.items_relabeled, want.items_relabeled) << store->name();
  EXPECT_EQ(st.rebalances, want.rebalances) << store->name();
  EXPECT_EQ(store->label_bits(), want.label_bits) << store->name();
  EXPECT_EQ(st.inserts, 2000u);
  // Plan/apply pipeline invariant: both L-Tree variants pay exactly one
  // relabel pass per insert, and single-leaf inserts never escalate.
  EXPECT_EQ(st.relabel_passes, 2000u) << store->name();
  EXPECT_EQ(st.coalesced_regions, 0u) << store->name();
  // Allocator-traffic accounting must balance: both L-Tree variants run
  // over pooled nodes (NodeArena for the materialized tree, the counted
  // B+-tree's pool for the virtual one), so both must report real nonzero
  // counters after a 2000-insert stream — the virtual store silently
  // reporting zeros was a bug this sweep pins against regressing.
  EXPECT_GT(st.nodes_allocated, 0u) << store->name();
  EXPECT_GT(st.nodes_reused, 0u) << store->name();
  EXPECT_GT(st.nodes_released, 0u) << store->name();
}

INSTANTIATE_TEST_SUITE_P(
    SeedGolden, GoldenSweepTest,
    ::testing::Values(
        GoldenSweep{"ltree:16:4", 13008, 60, 21},
        GoldenSweep{"virtual:16:4", 13008, 60, 21},
        GoldenSweep{"ltree:8:2:purge", 17065, 246, 20}),
    [](const auto& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ':' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace listlab
}  // namespace ltree
