// Multi-reader / one-writer stress suite for the concurrent LabelStore
// read contract (ctest labels: core, concurrent).
//
// For every scheme spec — both L-Tree variants (lock-free epoch-pinned
// reads), and the three serialized-fallback baselines — kReaders threads
// hammer the guard-based read API while this thread runs a deterministic
// mutation script. Readers assert the invariants that must hold at every
// instant:
//
//   * a pinned (never-erased) handle always resolves: LabelOf is ok and
//     CookieOf returns exactly the cookie it was inserted with;
//   * CompareOrder over two pinned handles always reports their original
//     relative order (order maintenance never reorders surviving items);
//   * ScanAll under a guard yields strictly increasing labels.
//
// After the writer quiesces, the racing store must be byte-for-byte
// equivalent to a single-threaded replay of the identical script — labels
// and cookie sequence both — and its deep audit (including the
// epoch-reclamation rule) must be clean.
//
// Iterations scale with the LTREE_STRESS_REPS environment variable so the
// TSan CI job can run an elevated count without slowing the default build.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "listlab/factory.h"
#include "store/document_store.h"

namespace ltree {
namespace {

// Only AcquireRead and QuiescentRead can build a guard: a default-
// constructed one would promise quiescence that nobody checked.
static_assert(!std::is_default_constructible_v<listlab::LabelStore::ReadGuard>);

using listlab::ItemHandle;
using listlab::LabelStore;

constexpr int kReaders = 4;
constexpr uint64_t kInitial = 512;   // bulk-loaded items
constexpr uint64_t kPinned = 64;     // prefix the script never erases
constexpr int kOps = 600;            // script length per iteration

int StressReps() {
  const char* env = std::getenv("LTREE_STRESS_REPS");
  if (env == nullptr) return 1;
  const int reps = std::atoi(env);
  return reps < 1 ? 1 : reps;
}

std::vector<LeafCookie> MakeCookies(uint64_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

/// One scripted mutation. `arg` selects anchors/victims deterministically;
/// `count` sizes batches.
struct Op {
  enum Kind { kInsertAfter, kInsertBefore, kPushBack, kErase, kBatchAfter };
  Kind kind;
  uint64_t arg;
  uint64_t count;
};

std::vector<Op> MakeScript(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t roll = rng() % 100;
    Op op;
    op.arg = rng();
    op.count = 1 + rng() % 16;
    if (roll < 45) {
      op.kind = Op::kInsertAfter;
    } else if (roll < 60) {
      op.kind = Op::kInsertBefore;
    } else if (roll < 70) {
      op.kind = Op::kPushBack;
    } else if (roll < 90) {
      op.kind = Op::kErase;
    } else {
      op.kind = Op::kBatchAfter;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies the script to `store`. Fully deterministic: anchors come from
/// the pinned prefix (always live), erase victims from the non-pinned
/// suffix (skipping already-erased ones), fresh cookies count up from
/// kInitial. Two stores fed the same script end in equivalent states.
void ApplyScript(LabelStore* store, const std::vector<Op>& ops,
                 std::vector<ItemHandle>* handles) {
  std::vector<bool> erased(handles->size(), false);
  LeafCookie next_cookie = kInitial;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kInsertAfter: {
        auto h = store->InsertAfter((*handles)[op.arg % kPinned],
                                    next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kInsertBefore: {
        auto h = store->InsertBefore((*handles)[op.arg % kPinned],
                                     next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kPushBack: {
        auto h = store->PushBack(next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kErase: {
        if (handles->size() <= kPinned) break;
        const uint64_t idx =
            kPinned + op.arg % (handles->size() - kPinned);
        if (erased[idx]) break;
        const Status st = store->Erase((*handles)[idx]);
        ASSERT_TRUE(st.ok()) << st.ToString();
        erased[idx] = true;
        break;
      }
      case Op::kBatchAfter: {
        std::vector<LeafCookie> cookies(op.count);
        std::iota(cookies.begin(), cookies.end(), next_cookie);
        next_cookie += op.count;
        const Status st = store->InsertBatchAfter(
            (*handles)[op.arg % kPinned], cookies, handles);
        ASSERT_TRUE(st.ok()) << st.ToString();
        erased.resize(handles->size(), false);
        break;
      }
    }
  }
}

class ConcurrentReadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConcurrentReadTest, ReadersRaceOneWriter) {
  const std::string spec = GetParam();
  const int reps = StressReps();
  for (int rep = 0; rep < reps; ++rep) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(kInitial), &handles).ok());

    const std::vector<Op> ops = MakeScript(7919u * rep + 17, kOps);
    // Readers index this frozen copy, never the live `handles` vector —
    // the writer's push_backs reallocate its buffer mid-run.
    const std::vector<ItemHandle> pinned(handles.begin(),
                                         handles.begin() + kPinned);
    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> violations{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        std::mt19937_64 rng(1000u + t);
        do {
          {
            const LabelStore::ReadGuard guard = store->AcquireRead();
            // Pinned handles: stable cookie, resolvable label, original
            // relative order.
            const uint64_t i = rng() % (kPinned - 1);
            const uint64_t j = i + 1 + rng() % (kPinned - 1 - i);
            auto cmp =
                store->CompareOrder(guard, pinned[i], pinned[j]);
            if (!cmp.ok() || *cmp != -1) violations.fetch_add(1);
            auto cookie = store->CookieOf(guard, pinned[i]);
            if (!cookie.ok() || *cookie != i) violations.fetch_add(1);
            if (!store->LabelOf(guard, pinned[j]).ok()) {
              violations.fetch_add(1);
            }
            if (rng() % 32 == 0) {
              const auto scan = store->ScanAll(guard);
              if (scan.size() < kPinned) violations.fetch_add(1);
              for (size_t k = 1; k < scan.size(); ++k) {
                if (scan[k].first <= scan[k - 1].first) {
                  violations.fetch_add(1);
                }
              }
            }
          }
          // Release the guard before yielding so serialized-scheme writers
          // get a window between reader lock acquisitions.
          std::this_thread::yield();
        } while (!writer_done.load(std::memory_order_acquire));
      });
    }

    ApplyScript(store.get(), ops, &handles);
    writer_done.store(true, std::memory_order_release);
    for (std::thread& th : readers) th.join();
    EXPECT_EQ(violations.load(), 0u) << spec << " rep " << rep;

    // Post-quiesce equivalence: the store the readers raced must match a
    // single-threaded replay of the identical script, label for label and
    // cookie for cookie.
    auto ref = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<ItemHandle> ref_handles;
    ASSERT_TRUE(ref->BulkLoad(MakeCookies(kInitial), &ref_handles).ok());
    ApplyScript(ref.get(), ops, &ref_handles);

    const LabelStore::ReadGuard guard = store->AcquireRead();
    const LabelStore::ReadGuard ref_guard = ref->AcquireRead();
    const auto got = store->ScanAll(guard);
    const auto want = ref->ScanAll(ref_guard);
    ASSERT_EQ(got.size(), want.size()) << spec << " rep " << rep;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].first, want[k].first) << spec << " position " << k;
      EXPECT_EQ(got[k].second, want[k].second) << spec << " position " << k;
    }

    // Deep audit of the raced store, including arena conservation against
    // epoch-pending nodes and the epoch-reclamation rule.
    const audit::Report report = store->Validate();
    EXPECT_TRUE(report.ok()) << spec << ":\n" << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConcurrentReadTest,
    ::testing::Values("ltree:16:4", "ltree:16:4:purge", "virtual:16:4",
                      "sequential", "gap:64", "bender"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

TEST(DocStoreConcurrentReadTest, GuardedShardReadsRaceWriter) {
  // One writer appends round-robin across documents (hitting every shard)
  // while reader threads snapshot each shard's label state, both through
  // the shard scheme's AcquireRead + ScanAll and through ShardState. Readers
  // touch only the shard schemes — the store-level registries keep their
  // thread-compatible contract.
  auto store = store::DocumentStore::Make({.num_shards = 4,
                                           .scheme_spec = "ltree:16:4",
                                           .feed_capacity = 1 << 20})
                   .ValueOrDie();
  constexpr store::DocId kDocs = 8;
  for (store::DocId doc = 0; doc < kDocs; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
    ASSERT_TRUE(store->InsertBatchAfterRank(doc, 0, 64).ok());
  }

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      const auto check = [&](const auto& scan) {
        if (scan.empty()) violations.fetch_add(1);
        for (size_t k = 1; k < scan.size(); ++k) {
          if (scan[k].first <= scan[k - 1].first) violations.fetch_add(1);
        }
      };
      do {
        for (uint32_t shard = 0; shard < store->num_shards(); ++shard) {
          const listlab::LabelStore& scheme = store->shard_store(shard);
          check(scheme.ScanAll(scheme.AcquireRead()));
          check(store->ShardState(shard));
        }
        std::this_thread::yield();
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }

  const int writes = 400 * StressReps();
  for (int i = 0; i < writes; ++i) {
    const store::DocId doc = static_cast<store::DocId>(i) % kDocs;
    ASSERT_TRUE(store->Append(doc).ok());
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_TRUE(store->Validate().ok());
}

}  // namespace
}  // namespace ltree
