// DocumentStore behavior: routing, document edits, feed publication,
// state-vector catch-up, stats rollup, and — via DocumentStoreTestPeer —
// the negative direction of the shard-routing and stats-rollup audit
// rules (a desynced registry or ledger MUST be reported).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "store/document_store.h"
#include "workload/update_stream.h"

namespace ltree {
namespace store {

/// Seeds corruptions for the negative audit tests. Only registry/ledger
/// state is reachable from here (ShardCtx lives in the .cc), which is
/// exactly what the shard-routing and stats-rollup rules guard.
class DocumentStoreTestPeer {
 public:
  static void SetDocShard(DocumentStore* s, DocId doc, uint32_t shard) {
    s->docs_[doc].shard = shard;
  }
  static void AddPhantomItem(DocumentStore* s, DocId doc,
                             listlab::ItemHandle handle) {
    s->docs_[doc].items.push_back(handle);
  }
  static void ForgetDocument(DocumentStore* s, DocId doc) {
    s->docs_.erase(doc);
  }
  static void BumpLedgerInserts(DocumentStore* s, uint64_t n) {
    s->ledger_.inserts += n;
  }
  static void CorruptSubscriber(DocumentStore* s, uint64_t subscriber,
                                StateVector position) {
    s->subscribers_[subscriber] = std::move(position);
  }
};

namespace {

std::unique_ptr<DocumentStore> MakeStore(const DocStoreOptions& options) {
  return DocumentStore::Make(options).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Construction and routing
// ---------------------------------------------------------------------------

TEST(DocumentStoreTest, MakeRejectsBadOptions) {
  EXPECT_TRUE(DocumentStore::Make({.num_shards = 0}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DocumentStore::Make({.feed_capacity = 0}).status()
                  .IsInvalidArgument());
  EXPECT_FALSE(DocumentStore::Make({.scheme_spec = "no-such-scheme"})
                   .status()
                   .ok());
}

TEST(DocumentStoreTest, RoutingIsDeterministicAndRoughlyUniform) {
  auto store = MakeStore({.num_shards = 8});
  std::vector<uint64_t> counts(8, 0);
  for (DocId doc = 0; doc < 4000; ++doc) {
    const uint32_t shard = store->ShardOf(doc);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, store->ShardOf(doc));  // stable
    ++counts[shard];
  }
  for (const uint64_t c : counts) {
    // 4000 docs over 8 shards: expect 500 per shard; allow wide slack.
    EXPECT_GT(c, 350u);
    EXPECT_LT(c, 650u);
  }
}

TEST(DocumentStoreTest, DocumentLifecycle) {
  auto store = MakeStore({.num_shards = 4});
  EXPECT_FALSE(store->HasDocument(7));
  EXPECT_TRUE(store->CreateDocument(7).ok());
  EXPECT_TRUE(store->HasDocument(7));
  EXPECT_TRUE(store->CreateDocument(7).IsAlreadyExists());
  EXPECT_EQ(store->DocSize(7).ValueOrDie(), 0u);
  EXPECT_TRUE(store->DocSize(8).status().IsNotFound());
  EXPECT_TRUE(store->Append(8).status().IsNotFound());
  // An unknown document is NotFound for every batch size, empty included.
  EXPECT_TRUE(store->InsertBatchAfterRank(8, 0, 0).IsNotFound());
  EXPECT_TRUE(store->InsertBatchAfterRank(8, 0, 3).IsNotFound());
  EXPECT_TRUE(store->InsertBatchAfterRank(7, 0, 0).ok());
  EXPECT_EQ(store->feed(store->ShardOf(7)).last_seq(), 0u);

  ASSERT_TRUE(store->Append(7).ok());
  ASSERT_TRUE(store->Append(7).ok());
  EXPECT_EQ(store->DocSize(7).ValueOrDie(), 2u);
  EXPECT_EQ(store->num_documents(), 1u);

  // Dropping erases every item (publishing erases) and forgets the doc.
  const uint32_t shard = store->ShardOf(7);
  ASSERT_TRUE(store->DropDocument(7).ok());
  EXPECT_FALSE(store->HasDocument(7));
  EXPECT_EQ(store->stats().live_items, 0u);
  EXPECT_EQ(store->feed(shard).last_seq(), 4u);  // 2 inserts + 2 erases
  EXPECT_TRUE(store->Validate().ok());
}

// ---------------------------------------------------------------------------
// Edits and document order
// ---------------------------------------------------------------------------

TEST(DocumentStoreTest, RankEditsPreserveDocumentOrder) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  const LeafCookie a = store->Append(1).ValueOrDie();
  const LeafCookie b = store->InsertAfterRank(1, 0).ValueOrDie();   // a b
  const LeafCookie c = store->InsertBeforeRank(1, 0).ValueOrDie();  // c a b
  const LeafCookie d = store->InsertAfterRank(1, 1).ValueOrDie();   // c a d b
  EXPECT_EQ(store->DocCookies(1).ValueOrDie(),
            (std::vector<LeafCookie>{c, a, d, b}));

  // Labels along document order are strictly increasing: the registry
  // keeps each document's items a contiguous-order subsequence of its
  // shard list.
  Label prev = 0;
  for (uint64_t rank = 0; rank < 4; ++rank) {
    const Label label = store->LabelAt(1, rank).ValueOrDie();
    if (rank > 0) {
      EXPECT_GT(label, prev) << "rank " << rank;
    }
    prev = label;
  }

  ASSERT_TRUE(store->EraseAt(1, 1).ok());  // drop a -> c d b
  EXPECT_EQ(store->DocCookies(1).ValueOrDie(),
            (std::vector<LeafCookie>{c, d, b}));
  EXPECT_TRUE(store->EraseAt(1, 3).IsOutOfRange());
  EXPECT_TRUE(store->InsertAfterRank(1, 3).status().IsOutOfRange());
  EXPECT_TRUE(store->Validate().ok());
}

TEST(DocumentStoreTest, DocumentsSharingAShardStayIndependent) {
  // One shard: every document lands in the same LabelStore.
  auto store = MakeStore({.num_shards = 1});
  for (DocId doc = 0; doc < 4; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
  }
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const DocId doc = rng.Uniform(4);
    const uint64_t size = store->DocSize(doc).ValueOrDie();
    if (size == 0) {
      ASSERT_TRUE(store->Append(doc).ok());
    } else if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(store->EraseAt(doc, rng.Uniform(size)).ok());
    } else {
      ASSERT_TRUE(store->InsertAfterRank(doc, rng.Uniform(size)).ok());
    }
  }
  // Each document's label sequence is strictly increasing independently.
  for (DocId doc = 0; doc < 4; ++doc) {
    const uint64_t size = store->DocSize(doc).ValueOrDie();
    Label prev = 0;
    for (uint64_t rank = 0; rank < size; ++rank) {
      const Label label = store->LabelAt(doc, rank).ValueOrDie();
      if (rank > 0) {
        EXPECT_GT(label, prev);
      }
      prev = label;
    }
  }
  EXPECT_TRUE(store->Validate().ok());
}

TEST(DocumentStoreTest, BatchInsertPublishesEveryItem) {
  auto store = MakeStore({.num_shards = 2, .scheme_spec = "ltree:16:4"});
  ASSERT_TRUE(store->CreateDocument(5).ok());
  std::vector<LeafCookie> cookies;
  ASSERT_TRUE(store->InsertBatchAfterRank(5, 0, 100, &cookies).ok());
  ASSERT_EQ(cookies.size(), 100u);
  EXPECT_EQ(store->DocSize(5).ValueOrDie(), 100u);
  // Cookies are store-assigned and contiguous for a batch.
  for (size_t i = 1; i < cookies.size(); ++i) {
    EXPECT_EQ(cookies[i], cookies[i - 1] + 1);
  }
  EXPECT_EQ(store->DocCookies(5).ValueOrDie(), cookies);

  // A second batch splices after rank 49.
  std::vector<LeafCookie> more;
  ASSERT_TRUE(store->InsertBatchAfterRank(5, 49, 10, &more).ok());
  const auto order = store->DocCookies(5).ValueOrDie();
  ASSERT_EQ(order.size(), 110u);
  EXPECT_EQ(order[49], cookies[49]);
  EXPECT_EQ(order[50], more[0]);
  EXPECT_EQ(order[59], more[9]);
  EXPECT_EQ(order[60], cookies[50]);

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.live_items, 110u);
  // Each batch went down the one-rebalance path: one relabel pass apiece.
  EXPECT_EQ(stats.rollup.relabel_passes, 2u);
  EXPECT_TRUE(store->Validate().ok());
}

TEST(DocumentStoreTest, FailedBatchPublishesNothing) {
  // Gaps of 2^62 leave room for three appends after label 0; the fourth
  // overflows, so the scheme rolls the batch back by erasing its prefix.
  auto store = MakeStore(
      {.num_shards = 1, .scheme_spec = "gap:4611686018427387904"});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  const LeafCookie first = store->Append(1).ValueOrDie();
  const uint64_t seq = store->feed(0).last_seq();
  EXPECT_TRUE(store->InsertBatchAfterRank(1, 0, 8).IsCapacityExceeded());
  EXPECT_EQ(store->feed(0).last_seq(), seq);
  EXPECT_EQ(store->DocSize(1).ValueOrDie(), 1u);
  const audit::Report report = store->Validate();
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The store is still usable and its snapshot matches the registry.
  const LeafCookie second = store->Append(1).ValueOrDie();
  EXPECT_EQ(store->feed(0).last_seq(), seq + 1);
  const std::vector<std::pair<Label, LeafCookie>> want = {
      {0, first}, {Label{1} << 62, second}};
  EXPECT_EQ(store->ShardState(0), want);
  EXPECT_TRUE(store->Validate().ok());
}

TEST(DocumentStoreTest, ApplyClampsRanksAndHandlesEmptyDocs) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  // Insert into an empty document appends regardless of rank.
  ASSERT_TRUE(store
                  ->Apply(1, {.kind = workload::ListOp::Kind::kInsertAfter,
                              .rank = 42})
                  .ok());
  EXPECT_EQ(store->DocSize(1).ValueOrDie(), 1u);
  // Overlarge ranks clamp to the tail item.
  ASSERT_TRUE(store
                  ->Apply(1, {.kind = workload::ListOp::Kind::kInsertBefore,
                              .rank = 42})
                  .ok());
  EXPECT_EQ(store->DocSize(1).ValueOrDie(), 2u);
  ASSERT_TRUE(
      store->Apply(1, {.kind = workload::ListOp::Kind::kErase, .rank = 42})
          .ok());
  ASSERT_TRUE(
      store->Apply(1, {.kind = workload::ListOp::Kind::kErase, .rank = 0})
          .ok());
  // Erase on an empty document is the one op that cannot be clamped away.
  EXPECT_TRUE(
      store->Apply(1, {.kind = workload::ListOp::Kind::kErase, .rank = 0})
          .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Feed publication and catch-up
// ---------------------------------------------------------------------------

TEST(DocumentStoreTest, FeedCarriesLiveHistoryOnly) {
  // Front inserts on a small-f tree force plenty of relabel passes; the
  // huge capacity keeps the full history replayable.
  auto store = MakeStore({.num_shards = 1,
                          .scheme_spec = "ltree:4:2",
                          .feed_capacity = 1 << 20});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->InsertBeforeRank(1, 0).ok());
  }
  // Replaying the feed into a cookie->label map must reproduce the live
  // state exactly (schemes never report tombstone shuffles).
  std::unordered_map<LeafCookie, Label> replay;
  const std::vector<FeedEvent> events =
      store->feed(0).EventsSince(0).ValueOrDie();
  for (const FeedEvent& event : events) {
    switch (event.kind) {
      case FeedEvent::Kind::kInsert:
        ASSERT_EQ(replay.count(event.cookie), 0u) << event.ToString();
        replay[event.cookie] = event.new_label;
        break;
      case FeedEvent::Kind::kRelabel:
        ASSERT_EQ(replay.count(event.cookie), 1u) << event.ToString();
        replay[event.cookie] = event.new_label;
        break;
      case FeedEvent::Kind::kErase:
        ASSERT_EQ(replay.erase(event.cookie), 1u) << event.ToString();
        break;
    }
  }
  const auto state = store->ShardState(0);
  ASSERT_EQ(replay.size(), state.size());
  for (const auto& [label, cookie] : state) {
    ASSERT_EQ(replay.at(cookie), label);
  }
}

TEST(DocumentStoreTest, CatchUpServesDeltaThenSnapshotAfterTrim) {
  auto store = MakeStore({.num_shards = 2, .feed_capacity = 1024});
  ASSERT_TRUE(store->CreateDocument(3).ok());
  const uint32_t shard = store->ShardOf(3);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(store->Append(3).ok());

  // 50 inserts plus however many relabels the scheme needed.
  const uint64_t head_seq = store->feed(shard).last_seq();
  ASSERT_GE(head_seq, 50u);

  // Delta from scratch.
  auto full = store->CatchUp(shard, 0).ValueOrDie();
  EXPECT_FALSE(full.snapshot);
  EXPECT_EQ(full.events.size(), head_seq);
  EXPECT_EQ(full.to_seq, head_seq);

  // Empty delta at the head.
  auto head = store->CatchUp(shard, head_seq).ValueOrDie();
  EXPECT_FALSE(head.snapshot);
  EXPECT_TRUE(head.events.empty());

  // Beyond the head is a protocol error.
  EXPECT_TRUE(store->CatchUp(shard, head_seq + 1).status().IsInvalidArgument());
  EXPECT_TRUE(store->CatchUp(99, 0).status().IsInvalidArgument());

  // After a trim the stale position flips to the snapshot path.
  store->TrimFeeds(10);
  auto snap = store->CatchUp(shard, 0).ValueOrDie();
  EXPECT_TRUE(snap.snapshot);
  EXPECT_EQ(snap.to_seq, head_seq);
  EXPECT_EQ(snap.state.size(), 50u);
  // A position still inside the retained window stays on the delta path.
  auto late = store->CatchUp(shard, head_seq - 5).ValueOrDie();
  EXPECT_FALSE(late.snapshot);
  EXPECT_EQ(late.events.size(), 5u);
}

TEST(DocumentStoreTest, StateVectorTracksPerShardHeads) {
  auto store = MakeStore({.num_shards = 4});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  ASSERT_TRUE(store->CreateDocument(1).ok());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(store->Append(0).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store->Append(1).ok());
  const StateVector sv = store->CurrentStateVector();
  ASSERT_EQ(sv.num_shards(), 4u);
  uint64_t total = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(sv.seq(shard), store->feed(shard).last_seq());
    total += sv.seq(shard);
  }
  // Relabels may add events beyond the 10 inserts, never fewer.
  EXPECT_GE(total, 10u);
}

// ---------------------------------------------------------------------------
// Stats rollup
// ---------------------------------------------------------------------------

TEST(DocumentStoreTest, StatsRollupAggregatesShards) {
  auto store =
      MakeStore({.num_shards = 4, .scheme_spec = "ltree:4:2"});
  workload::MultiSessionStream sessions(
      {.num_docs = 16,
       .num_sessions = 3,
       .doc_zipf_theta = 1.1,
       .session_stream = {.kind = workload::StreamKind::kMixed, .seed = 5}});
  for (DocId doc = 0; doc < 16; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
  }
  for (int i = 0; i < 2000; ++i) {
    const workload::DocOp op = sessions.Next([&](uint64_t doc) {
      return store->DocSize(doc).ValueOrDie();
    });
    ASSERT_TRUE(store->Apply(op.doc, op.op).ok());
  }
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.documents, 16u);
  EXPECT_EQ(stats.rollup.inserts - stats.rollup.erases, stats.live_items);
  uint64_t doc_total = 0;
  for (DocId doc = 0; doc < 16; ++doc) {
    doc_total += store->DocSize(doc).ValueOrDie();
  }
  EXPECT_EQ(stats.live_items, doc_total);
  ASSERT_EQ(stats.per_shard_items.size(), 4u);
  ASSERT_EQ(stats.per_shard_heap_bytes.size(), 4u);
  uint64_t shard_total = 0;
  uint64_t heap_total = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    shard_total += stats.per_shard_items[shard];
    heap_total += stats.per_shard_heap_bytes[shard];
    EXPECT_GT(stats.per_shard_heap_bytes[shard], 0u);
  }
  EXPECT_EQ(shard_total, stats.live_items);
  EXPECT_EQ(heap_total, stats.heap_bytes);
  EXPECT_EQ(stats.feed_retained + stats.feed_trimmed, stats.feed_events);
  EXPECT_TRUE(store->Validate().ok());
}

// ---------------------------------------------------------------------------
// Audit rules: negative direction
// ---------------------------------------------------------------------------

TEST(DocumentStoreAuditTest, CleanStoreAuditsOkAcrossSchemes) {
  for (const char* spec : {"ltree:16:4", "ltree:16:4:purge", "virtual:16:4",
                           "gap:64", "sequential", "bender"}) {
    auto store = MakeStore({.num_shards = 3, .scheme_spec = spec});
    for (DocId doc = 0; doc < 6; ++doc) {
      ASSERT_TRUE(store->CreateDocument(doc).ok()) << spec;
      for (int i = 0; i < 20; ++i) ASSERT_TRUE(store->Append(doc).ok());
    }
    ASSERT_TRUE(store->EraseAt(2, 5).ok()) << spec;
    const audit::Report report = store->Validate();
    EXPECT_TRUE(report.ok()) << spec << ": " << report.ToString();
    EXPECT_TRUE(store->Validate().ok()) << spec;
  }
}

TEST(DocumentStoreAuditTest, MisroutedDocumentIsReported) {
  auto store = MakeStore({.num_shards = 4});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  const uint32_t wrong = (store->ShardOf(1) + 1) % 4;
  DocumentStoreTestPeer::SetDocShard(store.get(), 1, wrong);
  const audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("shard-routing"));
}

TEST(DocumentStoreAuditTest, OutOfRangeShardIsReported) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  DocumentStoreTestPeer::SetDocShard(store.get(), 1, 7);
  const audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("shard-routing"));
}

TEST(DocumentStoreAuditTest, PhantomItemIsReported) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  DocumentStoreTestPeer::AddPhantomItem(store.get(), 1,
                                        listlab::ItemHandle{987654});
  const audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("shard-routing"));
}

TEST(DocumentStoreAuditTest, DoublyRegisteredHandleIsReported) {
  auto store = MakeStore({.num_shards = 1});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  // The document's only item is the shard's first handle.
  DocumentStoreTestPeer::AddPhantomItem(store.get(), 1,
                                        listlab::ItemHandle{0});
  const audit::Report report = store->Validate();
  EXPECT_TRUE(report.HasRule("shard-routing"));
  EXPECT_NE(report.ToString().find("registered more than once"),
            std::string::npos)
      << report.ToString();
}

TEST(DocumentStoreAuditTest, ForgottenDocumentBreaksConservation) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  // Dropping the registry entry orphans the item in its shard scheme.
  DocumentStoreTestPeer::ForgetDocument(store.get(), 1);
  const audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("shard-routing"));
}

TEST(DocumentStoreAuditTest, LedgerTamperBreaksStatsRollup) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(1).ok());
  ASSERT_TRUE(store->Append(1).ok());
  DocumentStoreTestPeer::BumpLedgerInserts(store.get(), 5);
  const audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("stats-rollup"));
}

// ---------------------------------------------------------------------------
// Subscriber registry and subscriber-aware trimming
// ---------------------------------------------------------------------------

TEST(SubscriberTrimTest, RegisterValidatesShardCountAndPositions) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store->Append(0).ok());

  EXPECT_TRUE(store->RegisterSubscriber(1, StateVector(2)).ok());
  EXPECT_EQ(store->num_subscribers(), 1u);
  // Wrong shard count.
  EXPECT_TRUE(store->RegisterSubscriber(2, StateVector(3))
                  .IsInvalidArgument());
  // Position beyond the feed head claims a future the feed never
  // published.
  StateVector future(2);
  future.Set(store->ShardOf(0), 999);
  EXPECT_TRUE(store->RegisterSubscriber(3, future).IsInvalidArgument());
  EXPECT_EQ(store->num_subscribers(), 1u);

  // Re-registering overwrites the position; unregistering forgets it.
  StateVector current = store->CurrentStateVector();
  EXPECT_TRUE(store->RegisterSubscriber(1, current).ok());
  EXPECT_EQ(store->num_subscribers(), 1u);
  EXPECT_TRUE(store->UnregisterSubscriber(1).ok());
  EXPECT_TRUE(store->UnregisterSubscriber(1).IsNotFound());
  EXPECT_EQ(store->num_subscribers(), 0u);
}

TEST(SubscriberTrimTest, TrimStopsAtTheSlowestSubscriber) {
  auto store = MakeStore({.num_shards = 1, .feed_capacity = 4096});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(store->Append(0).ok());
  // Appends may emit relabel events too, so measure the head rather than
  // assuming one event per append.
  const uint64_t head = store->CurrentStateVector().seq(0);
  ASSERT_GE(head, 20u);

  StateVector fast(1);
  fast.Set(0, head - 2);
  StateVector slow(1);
  slow.Set(0, 5);
  ASSERT_TRUE(store->RegisterSubscriber(1, fast).ok());
  ASSERT_TRUE(store->RegisterSubscriber(2, slow).ok());
  EXPECT_EQ(store->SlowestSubscriberSeq(0), 5u);

  // Events (5, head] are still owed to the slow subscriber: exactly the
  // first 5 retained events may go.
  EXPECT_EQ(store->TrimToSlowestSubscriber(), 5u);
  const auto served = store->CatchUp(0, 5);
  ASSERT_TRUE(served.ok());
  EXPECT_FALSE(served->snapshot);  // the slow subscriber still gets deltas
  EXPECT_EQ(served->events.size(), head - 5);

  // Once the laggard unregisters, everything up to the fast subscriber
  // can be trimmed.
  ASSERT_TRUE(store->UnregisterSubscriber(2).ok());
  EXPECT_EQ(store->SlowestSubscriberSeq(0), head - 2);
  EXPECT_EQ(store->TrimToSlowestSubscriber(), head - 7);
}

TEST(SubscriberTrimTest, MemoryBudgetWinsOverTheLaggard) {
  auto store = MakeStore({.num_shards = 1, .feed_capacity = 4096});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(store->Append(0).ok());

  const uint64_t head = store->CurrentStateVector().seq(0);
  StateVector laggard(1);  // position 0: owed the whole feed
  ASSERT_TRUE(store->RegisterSubscriber(1, laggard).ok());
  // Unbudgeted trim keeps everything for the laggard.
  EXPECT_EQ(store->TrimToSlowestSubscriber(), 0u);
  // A 10-event budget evicts all older events; the laggard must now take
  // the snapshot path, exactly like a trim-during-partition in the chaos
  // suite.
  EXPECT_EQ(store->TrimToSlowestSubscriber(/*max_retained=*/10), head - 10);
  const auto served = store->CatchUp(0, 0);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->snapshot);
}

TEST(SubscriberTrimTest, NoSubscribersMeansTrimToHead) {
  auto store = MakeStore({.num_shards = 1});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(store->Append(0).ok());
  EXPECT_EQ(store->SlowestSubscriberSeq(0), 8u);
  EXPECT_EQ(store->TrimToSlowestSubscriber(), 8u);
}

TEST(DocumentStoreAuditTest, CorruptSubscriberPositionIsReported) {
  auto store = MakeStore({.num_shards = 2});
  ASSERT_TRUE(store->CreateDocument(0).ok());
  ASSERT_TRUE(store->Append(0).ok());

  // A position past the feed head can never arise through
  // RegisterSubscriber; plant one directly.
  StateVector beyond(2);
  beyond.Set(0, 999);
  beyond.Set(1, 999);
  DocumentStoreTestPeer::CorruptSubscriber(store.get(), 9,
                                           std::move(beyond));
  audit::Report report = store->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("subscriber-registry")) << report.ToString();

  // Same rule for a shard-count mismatch.
  auto store2 = MakeStore({.num_shards = 2});
  DocumentStoreTestPeer::CorruptSubscriber(store2.get(), 9, StateVector(5));
  report = store2->Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("subscriber-registry")) << report.ToString();
}

// ---------------------------------------------------------------------------
// Multi-session workload generator
// ---------------------------------------------------------------------------

TEST(MultiSessionStreamTest, RoundRobinsSessionsAndSkewsDocs) {
  workload::MultiSessionStream sessions(
      {.num_docs = 32,
       .num_sessions = 4,
       .doc_zipf_theta = 1.2,
       .session_stream = {.kind = workload::StreamKind::kUniform,
                          .seed = 42}});
  std::vector<uint64_t> per_doc(32, 0);
  uint32_t expect_session = 0;
  for (int i = 0; i < 4000; ++i) {
    const workload::DocOp op = sessions.Next([](uint64_t) { return 10; });
    EXPECT_EQ(op.session, expect_session);
    expect_session = (expect_session + 1) % 4;
    ASSERT_LT(op.doc, 32u);
    ASSERT_LT(op.op.rank, 10u);
    ++per_doc[op.doc];
  }
  // Zipf theta 1.2: the hottest document dominates a uniform share.
  uint64_t hottest = 0;
  for (const uint64_t c : per_doc) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 4000u / 32 * 4);
}

TEST(MultiSessionStreamTest, EmptyDocumentsAlwaysGetInserts) {
  workload::MultiSessionStream sessions(
      {.num_docs = 8,
       .num_sessions = 2,
       .session_stream = {.kind = workload::StreamKind::kMixed,
                          .erase_fraction = 0.9,
                          .seed = 3}});
  for (int i = 0; i < 500; ++i) {
    const workload::DocOp op = sessions.Next([](uint64_t) { return 0; });
    EXPECT_EQ(op.op.kind, workload::ListOp::Kind::kInsertAfter);
    EXPECT_EQ(op.op.rank, 0u);
  }
}

TEST(MultiSessionStreamTest, SameSeedReproducesTheStream) {
  const workload::MultiSessionOptions options{
      .num_docs = 16,
      .num_sessions = 3,
      .doc_zipf_theta = 0.9,
      .session_stream = {.kind = workload::StreamKind::kMixed, .seed = 77}};
  workload::MultiSessionStream a(options);
  workload::MultiSessionStream b(options);
  for (int i = 0; i < 200; ++i) {
    const auto size = [](uint64_t doc) { return doc % 5 + 1; };
    const workload::DocOp x = a.Next(size);
    const workload::DocOp y = b.Next(size);
    EXPECT_EQ(x.doc, y.doc);
    EXPECT_EQ(x.session, y.session);
    EXPECT_EQ(static_cast<int>(x.op.kind), static_cast<int>(y.op.kind));
    EXPECT_EQ(x.op.rank, y.op.rank);
  }
}

}  // namespace
}  // namespace store
}  // namespace ltree
