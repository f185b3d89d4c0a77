// TSan smoke suite: concurrent read-only traversal of every core
// structure.
//
// The library is documented thread-compatible (const operations may run
// concurrently as long as no thread mutates), which is also the baseline
// the planned concurrent LabelStore mode builds on. These tests pin that
// contract under `cmake --preset tsan`: several threads traverse a frozen
// structure at once, and ThreadSanitizer flags any const path that
// secretly writes shared state. They are deliberately cheap enough to run
// in every preset, not just the TSan one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/ltree.h"
#include "listlab/factory.h"
#include "obtree/counted_btree.h"
#include "store/document_store.h"
#include "virtual_ltree/virtual_ltree.h"

namespace ltree {
namespace {

constexpr int kThreads = 4;
constexpr uint64_t kLeaves = 4000;

std::vector<LeafCookie> MakeCookies(uint64_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

/// Runs `fn` on kThreads threads concurrently and joins them.
template <typename Fn>
void RunConcurrently(Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(fn, t);
  }
  for (std::thread& th : threads) th.join();
}

TEST(TsanSmokeTest, ConcurrentLTreeTraversal) {
  auto tree = LTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(kLeaves), &handles).ok());
  // Mix in splits and tombstones before freezing the tree.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->InsertAfter(handles[i * 7], 100000 + i).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree->MarkDeleted(handles[i * 11]).ok());
  }

  std::vector<uint64_t> sums(kThreads, 0);
  std::atomic<int> ordered_threads{0};
  RunConcurrently([&](int t) {
    // Full leaf walk: labels must strictly increase, and every thread
    // must see the identical frozen sequence.
    uint64_t sum = 0;
    Label prev = 0;
    bool first = true;
    bool ordered = true;
    for (LTree::LeafHandle leaf = tree->FirstLeaf(); leaf != nullptr;
         leaf = tree->NextLeaf(leaf)) {
      const Label label = tree->label(leaf);
      if (!first && label <= prev) ordered = false;
      prev = label;
      first = false;
      sum += label + tree->cookie(leaf);
    }
    if (ordered) ordered_threads.fetch_add(1);
    sums[t] = sum;
  });
  EXPECT_EQ(ordered_threads.load(), kThreads);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(sums[t], sums[0]);
}

TEST(TsanSmokeTest, ConcurrentCountedBTreeQueries) {
  obtree::CountedBTree tree(16);
  std::vector<obtree::Entry> entries;
  entries.reserve(kLeaves);
  for (uint64_t i = 0; i < kLeaves; ++i) {
    entries.push_back({i * 3, i});
  }
  ASSERT_TRUE(tree.BulkBuild(entries).ok());

  std::vector<uint64_t> hits(kThreads, 0);
  RunConcurrently([&](int t) {
    uint64_t hit = 0;
    for (uint64_t i = static_cast<uint64_t>(t); i < kLeaves;
         i += kThreads) {
      if (tree.Contains(i * 3)) ++hit;
      hit += tree.CountLess(i * 3);
      hit += tree.RangeCount(i, i + 1000);
      auto sel = tree.Select(i);
      if (sel.ok()) hit += sel->value;
    }
    // Ordered scans from different threads over the same frozen tree.
    for (auto it = tree.Seek(static_cast<Label>(t) * 100); it.Valid();
         it.Next()) {
      hit += it.key() & 1;
    }
    hits[t] = hit;
  });
  uint64_t total = 0;
  for (uint64_t h : hits) total += h;
  EXPECT_GT(total, 0u);
}

TEST(TsanSmokeTest, ConcurrentVirtualLTreeQueries) {
  auto tree = VirtualLTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<Label> labels;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(kLeaves), &labels).ok());

  std::atomic<uint64_t> mismatches{0};
  RunConcurrently([&](int t) {
    for (uint64_t i = static_cast<uint64_t>(t); i < kLeaves;
         i += kThreads) {
      auto cookie = tree->GetCookie(labels[i]);
      if (!cookie.ok() || *cookie != i) mismatches.fetch_add(1);
      auto slot = tree->SelectSlot(i);
      if (!slot.ok() || *slot != labels[i]) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(TsanSmokeTest, ConcurrentStoreReadsAcrossSchemes) {
  for (const char* spec :
       {"ltree:16:4", "virtual:16:4", "sequential", "gap:64", "bender"}) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<listlab::ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(1000), &handles).ok()) << spec;

    std::atomic<uint64_t> mismatches{0};
    RunConcurrently([&](int t) {
      // The store is frozen, so any thread may read under QuiescentRead.
      const listlab::LabelStore::ReadGuard guard = store->QuiescentRead();
      for (size_t i = static_cast<size_t>(t); i < handles.size();
           i += kThreads) {
        auto cookie = store->CookieOf(guard, handles[i]);
        if (!cookie.ok() || *cookie != i) mismatches.fetch_add(1);
        if (!store->LabelOf(guard, handles[i]).ok()) mismatches.fetch_add(1);
      }
      if (store->ScanAll(guard).size() != handles.size()) {
        mismatches.fetch_add(1);
      }
      // The deep auditor itself must be a pure read: concurrent
      // Validate() calls are the validate-after-traverse pattern the
      // concurrent mode will lean on.
      if (!store->Validate().ok()) mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0u) << spec;
  }
}

TEST(TsanSmokeTest, ConcurrentDocumentStoreReadsAcrossShards) {
  // Freeze a populated sharded store, then read it from every side at
  // once: per-document label walks, per-shard live-state snapshots, feed
  // suffixes and state vectors (stats() has its own case below).
  auto store = store::DocumentStore::Make({.num_shards = 4,
                                           .scheme_spec = "ltree:16:4",
                                           .feed_capacity = 1 << 20})
                   .ValueOrDie();
  constexpr store::DocId kDocs = 12;
  for (store::DocId doc = 0; doc < kDocs; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
    ASSERT_TRUE(store->InsertBatchAfterRank(doc, 0, 200).ok());
  }

  std::atomic<uint64_t> mismatches{0};
  RunConcurrently([&](int t) {
    // Each thread walks a different slice of documents...
    for (store::DocId doc = static_cast<store::DocId>(t); doc < kDocs;
         doc += kThreads) {
      const uint64_t size = store->DocSize(doc).ValueOrDie();
      Label prev = 0;
      for (uint64_t rank = 0; rank < size; ++rank) {
        const auto label = store->LabelAt(doc, rank);
        if (!label.ok() || (rank > 0 && *label <= prev)) {
          mismatches.fetch_add(1);
        }
        if (label.ok()) prev = *label;
      }
      if (store->DocCookies(doc).ValueOrDie().size() != size) {
        mismatches.fetch_add(1);
      }
    }
    // ...and every thread scans every shard's frozen feed and live state.
    const store::StateVector head = store->CurrentStateVector();
    for (uint32_t shard = 0; shard < store->num_shards(); ++shard) {
      const store::ChangeFeed& feed = store->feed(shard);
      if (head.seq(shard) != feed.last_seq()) mismatches.fetch_add(1);
      uint64_t events = 0;
      const std::vector<store::FeedEvent> suffix =
          feed.EventsSince(0).ValueOrDie();
      for (const store::FeedEvent& event : suffix) {
        events += event.cookie != 0 ? 1 : 0;
      }
      if (events != feed.retained()) mismatches.fetch_add(1);
      const auto state = store->ShardState(shard);
      for (size_t i = 1; i < state.size(); ++i) {
        if (state[i].first <= state[i - 1].first) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

/// Calls `read` (returning MaintStats) on kThreads threads at once and
/// expects every thread to see the same counters.
template <typename Read>
void ExpectConcurrentStatsAgree(Read read, const std::string& what) {
  std::vector<MaintStats> seen(kThreads);
  RunConcurrently([&](int t) {
    for (int i = 0; i < 20; ++i) seen[t] = read();
  });
  EXPECT_GT(seen[0].inserts, 0u) << what;
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(seen[t] == seen[0]) << what << " thread " << t;
  }
}

TEST(TsanSmokeTest, ConcurrentStatsReads) {
  // stats() is a const read like any other: it returns a copy with the
  // arena traffic filled in and writes nothing, so concurrent calls on a
  // frozen structure neither race nor disagree.
  auto tree = LTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<LTree::LeafHandle> leaves;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(kLeaves), &leaves).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->InsertAfter(leaves[i * 7], 100000 + i).ok());
  }
  ExpectConcurrentStatsAgree([&] { return tree->stats(); }, "LTree");

  auto vtree = VirtualLTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<Label> labels;
  ASSERT_TRUE(vtree->BulkLoad(MakeCookies(kLeaves), &labels).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(vtree->PushBack(100000 + i).ok());
  }
  ExpectConcurrentStatsAgree([&] { return vtree->stats(); }, "VirtualLTree");

  for (const char* spec :
       {"sequential", "gap:64", "bender", "bender:0.75", "ltree:16:4",
        "ltree:16:4:purge", "virtual:16:4", "virtual:16:4:purge"}) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<listlab::ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(1000), &handles).ok()) << spec;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(store->InsertAfter(handles[i * 9], 5000 + i).ok()) << spec;
    }
    ASSERT_TRUE(store->Erase(handles[1]).ok()) << spec;
    ExpectConcurrentStatsAgree([&] { return store->stats(); }, spec);
  }

  auto docs = store::DocumentStore::Make({.num_shards = 4,
                                          .scheme_spec = "ltree:16:4",
                                          .feed_capacity = 1 << 20})
                  .ValueOrDie();
  for (store::DocId doc = 0; doc < 12; ++doc) {
    ASSERT_TRUE(docs->CreateDocument(doc).ok());
    ASSERT_TRUE(docs->InsertBatchAfterRank(doc, 0, 200).ok());
  }
  ExpectConcurrentStatsAgree(
      [&] {
        // The store-level audit reads the same scheme counters.
        EXPECT_TRUE(docs->Validate().ok());
        return docs->stats().rollup;
      },
      "DocumentStore");
}

}  // namespace
}  // namespace ltree
