// Cross-scheme insert and read contract, on every scheme family, against a
// std::vector oracle. Inserts: every public insert form of LabelStore
// (InsertAfter, InsertBefore, PushBack and their batch forms) wraps the one
// LabelStore::Insert, so they must agree on where items land, on the
// handles they return, and on how a bad anchor fails. Reads: LabelOf,
// CookieOf and ScanAll must give the same answers under either guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "listlab/factory.h"
#include "listlab/order_maintainer.h"
#include "testing/label_scan.h"

namespace ltree {
namespace listlab {
namespace {

enum class Form {
  kInsertAfter,
  kInsertBefore,
  kPushBack,
  kInsertBatchAfter,
  kInsertBatchBefore,
  kPushBackBatch,
};

constexpr int kNumForms = 6;
static_assert(static_cast<int>(Form::kPushBackBatch) == kNumForms - 1);

const char* FormName(Form form) {
  switch (form) {
    case Form::kInsertAfter:
      return "InsertAfter";
    case Form::kInsertBefore:
      return "InsertBefore";
    case Form::kPushBack:
      return "PushBack";
    case Form::kInsertBatchAfter:
      return "InsertBatchAfter";
    case Form::kInsertBatchBefore:
      return "InsertBatchBefore";
    case Form::kPushBackBatch:
      return "PushBackBatch";
  }
  return "?";
}

bool IsBatch(Form form) {
  return form == Form::kInsertBatchAfter || form == Form::kInsertBatchBefore ||
         form == Form::kPushBackBatch;
}

bool IsAnchored(Form form) {
  return form != Form::kPushBack && form != Form::kPushBackBatch;
}

/// Where `form` puts its items relative to oracle index `r` of a list of
/// `size` items.
size_t OracleIndex(Form form, size_t r, size_t size) {
  switch (form) {
    case Form::kInsertAfter:
    case Form::kInsertBatchAfter:
      return r + 1;
    case Form::kInsertBefore:
    case Form::kInsertBatchBefore:
      return r;
    case Form::kPushBack:
    case Form::kPushBackBatch:
      break;
  }
  return size;
}

/// A single form's one handle as a vector, or its error.
Result<std::vector<ItemHandle>> One(Result<ItemHandle> h) {
  if (!h.ok()) return h.status();
  return std::vector<ItemHandle>{*h};
}

/// Calls `form` (the single forms take exactly one cookie) and returns the
/// handles it issued.
Result<std::vector<ItemHandle>> Call(LabelStore& store, Form form,
                                     ItemHandle pos,
                                     std::span<const LeafCookie> cookies) {
  std::vector<ItemHandle> fresh;
  Status st;
  switch (form) {
    case Form::kInsertAfter:
      return One(store.InsertAfter(pos, cookies[0]));
    case Form::kInsertBefore:
      return One(store.InsertBefore(pos, cookies[0]));
    case Form::kPushBack:
      return One(store.PushBack(cookies[0]));
    case Form::kInsertBatchAfter:
      st = store.InsertBatchAfter(pos, cookies, &fresh);
      break;
    case Form::kInsertBatchBefore:
      st = store.InsertBatchBefore(pos, cookies, &fresh);
      break;
    case Form::kPushBackBatch:
      st = store.PushBackBatch(cookies, &fresh);
      break;
  }
  if (!st.ok()) return st;
  return fresh;
}

std::vector<LeafCookie> ScanCookies(const LabelStore& store) {
  const LabelStore::ReadGuard guard = store.AcquireRead();
  std::vector<LeafCookie> out;
  for (const auto& [label, cookie] : store.ScanAll(guard)) {
    out.push_back(cookie);
  }
  return out;
}

class InsertContractTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InsertContractTest, EveryFormLandsWhereTheOracleSays) {
  auto store = MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<ItemHandle> handles;  // the oracle: list order, both vectors
  ASSERT_TRUE(store->BulkLoad(8, &handles).ok());
  std::vector<LeafCookie> oracle(8);
  std::iota(oracle.begin(), oracle.end(), LeafCookie{0});
  LeafCookie next_cookie = 100;
  Rng rng(17);
  for (int round = 0; round < 40; ++round) {
    for (int f = 0; f < kNumForms; ++f) {
      const auto form = static_cast<Form>(f);
      const size_t k = IsBatch(form) ? rng.Uniform(5) : 1;
      std::vector<LeafCookie> cookies(k);
      std::iota(cookies.begin(), cookies.end(), next_cookie);
      next_cookie += k;
      const size_t r = rng.Uniform(handles.size());
      const std::string ctx = std::string(FormName(form)) + " k=" +
                              std::to_string(k) + " round " +
                              std::to_string(round);

      auto fresh = Call(*store, form, handles[r], cookies);
      ASSERT_TRUE(fresh.ok()) << ctx << ": " << fresh.status().ToString();
      ASSERT_EQ(fresh->size(), k) << ctx;
      for (size_t i = 1; i < k; ++i) {
        ASSERT_EQ((*fresh)[i], (*fresh)[0] + i) << ctx;
      }
      const size_t at = OracleIndex(form, r, oracle.size());
      oracle.insert(oracle.begin() + static_cast<ptrdiff_t>(at),
                    cookies.begin(), cookies.end());
      handles.insert(handles.begin() + static_cast<ptrdiff_t>(at),
                     fresh->begin(), fresh->end());
      ASSERT_EQ(ScanCookies(*store), oracle) << ctx;
      const LabelStore::ReadGuard guard = store->QuiescentRead();
      for (size_t i = 0; i < k; ++i) {
        ASSERT_EQ(*store->CookieOf(guard, (*fresh)[i]), cookies[i]) << ctx;
      }
    }
    // Erase one item so later anchors sit next to tombstones (L-Tree) or
    // vacated labels (linked lists).
    const size_t r = rng.Uniform(handles.size());
    ASSERT_TRUE(store->Erase(handles[r]).ok());
    handles.erase(handles.begin() + static_cast<ptrdiff_t>(r));
    oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(r));
    ASSERT_TRUE(store->Validate().ok()) << "round " << round;
  }
  EXPECT_EQ(store->size(), oracle.size());
}

TEST_P(InsertContractTest, BadAnchorIsNotFoundForEverySpan) {
  auto store = MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(8, &handles).ok());
  ASSERT_TRUE(store->Erase(handles[4]).ok());
  store->ResetStats();
  const std::vector<Label> labels_before = ScanLabels(*store);
  const std::vector<LeafCookie> cookies{200, 201};
  const ItemHandle unknown = 999;
  const ItemHandle erased = handles[4];
  for (int f = 0; f < kNumForms; ++f) {
    const auto form = static_cast<Form>(f);
    if (!IsAnchored(form)) continue;
    for (const ItemHandle bad : {unknown, erased}) {
      for (const size_t k : {size_t{0}, size_t{1}, size_t{2}}) {
        if (!IsBatch(form) && k != 1) continue;
        auto fresh = Call(*store, form, bad, std::span(cookies).first(k));
        EXPECT_TRUE(fresh.status().IsNotFound())
            << FormName(form) << " pos=" << bad << " k=" << k;
      }
    }
  }
  EXPECT_EQ(store->size(), 7u);
  EXPECT_EQ(ScanLabels(*store), labels_before);
  EXPECT_EQ(store->stats().inserts, 0u);
  EXPECT_TRUE(store->Validate().ok());
}

TEST_P(InsertContractTest, BackIgnoresTheAnchor) {
  auto store = MakeLabelStore(GetParam()).ValueOrDie();
  const std::vector<LeafCookie> cookies{5, 6, 7};
  std::vector<ItemHandle> fresh;
  // Any pos, even one the store never issued, works on an empty store.
  auto first = store->Insert(Where::kBack, 999, cookies, &fresh);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_EQ(fresh[0], *first);
  EXPECT_EQ(ScanCookies(*store), cookies);
  EXPECT_TRUE(store->Validate().ok());
}

constexpr LeafCookie kNoCookie = ~LeafCookie{0};

/// What one guard lets a reader see: the scan, LabelOf/CookieOf of every
/// live handle in list order (kInvalidLabel and kNoCookie where a read
/// failed), and whether both reads of every dead handle are NotFound.
struct ReadView {
  std::vector<std::pair<Label, LeafCookie>> scan;
  std::vector<std::pair<Label, LeafCookie>> live;
  bool dead_not_found = true;
};

ReadView ReadUnder(const LabelStore& store, const LabelStore::ReadGuard& guard,
                   std::span<const ItemHandle> live,
                   std::span<const ItemHandle> dead) {
  ReadView view;
  view.scan = store.ScanAll(guard);
  for (const ItemHandle h : live) {
    view.live.emplace_back(store.LabelOf(guard, h).ValueOr(kInvalidLabel),
                           store.CookieOf(guard, h).ValueOr(kNoCookie));
  }
  for (const ItemHandle h : dead) {
    view.dead_not_found = view.dead_not_found &&
                          store.LabelOf(guard, h).status().IsNotFound() &&
                          store.CookieOf(guard, h).status().IsNotFound();
  }
  return view;
}

// The read contract: LabelOf and CookieOf answer the same under
// QuiescentRead and AcquireRead, match ScanAll for every live handle, and
// are NotFound for unknown and erased handles; ScanAll omits erased items.
TEST_P(InsertContractTest, ReadsAgreeUnderBothGuards) {
  auto store = MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<ItemHandle> order;  // the oracle: list order, both vectors
  ASSERT_TRUE(store->BulkLoad(16, &order).ok());
  std::vector<LeafCookie> oracle(16);
  std::iota(oracle.begin(), oracle.end(), LeafCookie{0});

  // Erase a band, then pile inserts onto both of its edges until splits
  // rebuild the region around it (a purging scheme frees the band's
  // leaves, and the erased handles must still answer NotFound).
  std::vector<ItemHandle> dead(order.begin() + 6, order.begin() + 10);
  for (const ItemHandle h : dead) ASSERT_TRUE(store->Erase(h).ok());
  order.erase(order.begin() + 6, order.begin() + 10);
  oracle.erase(oracle.begin() + 6, oracle.begin() + 10);
  const ItemHandle left = order[5];
  const ItemHandle right = order[6];
  for (LeafCookie c = 100; c < 164; ++c) {
    const Where where = c % 2 == 0 ? Where::kAfter : Where::kBefore;
    const ItemHandle anchor = where == Where::kAfter ? left : right;
    auto h = store->Insert(where, anchor, {&c, 1});
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    const auto at = std::find(order.begin(), order.end(), anchor);
    const ptrdiff_t i = (at - order.begin()) + (where == Where::kAfter ? 1 : 0);
    order.insert(order.begin() + i, *h);
    oracle.insert(oracle.begin() + i, c);
  }
  if (store->erase_semantics() == EraseSemantics::kTombstonePurge) {
    ASSERT_GT(store->stats().tombstones_purged, 0u);
  }
  dead.push_back(999999);
  dead.push_back(kInvalidItemHandle);

  const ReadView quiescent =
      ReadUnder(*store, store->QuiescentRead(), order, dead);
  const ReadView acquired =
      ReadUnder(*store, store->AcquireRead(), order, dead);
  EXPECT_EQ(quiescent.scan, acquired.scan);
  EXPECT_EQ(quiescent.live, acquired.live);
  // Per-item reads match the scan at every live handle's list position,
  // and the scan holds nothing else: erased items are omitted.
  EXPECT_EQ(quiescent.live, quiescent.scan);
  EXPECT_EQ(quiescent.scan.size(), store->size());
  std::vector<LeafCookie> scanned;
  for (const auto& [label, cookie] : quiescent.scan) scanned.push_back(cookie);
  EXPECT_EQ(scanned, oracle);
  EXPECT_TRUE(quiescent.dead_not_found);
  EXPECT_TRUE(acquired.dead_not_found);
  EXPECT_TRUE(store->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Schemes, InsertContractTest,
                         ::testing::Values("ltree:16:4", "ltree:4:2:purge",
                                           "virtual:16:4", "sequential",
                                           "gap:16", "bender"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace listlab
}  // namespace ltree
