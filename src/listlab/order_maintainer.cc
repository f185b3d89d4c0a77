#include "listlab/order_maintainer.h"

#include <functional>
#include <numeric>
#include <shared_mutex>

#include "common/macros.h"

namespace ltree {
namespace listlab {

#ifdef LISTLAB_VALIDATE
void LabelStore::AutoValidate(const char* op) const {
  audit::AbortIfViolated(Validate(), name(), op);
}
#endif

Status LabelStore::BulkLoad(uint64_t n, std::vector<ItemHandle>* handles) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), LeafCookie{0});
  return BulkLoad(cookies, handles);
}

// --------------------------------------------------------------------------
// Public mutation wrappers: one writer section per call.
// --------------------------------------------------------------------------

Status LabelStore::BulkLoad(std::span<const LeafCookie> cookies,
                            std::vector<ItemHandle>* handles) {
  WriteSection section(this);
  return BulkLoadImpl(cookies, handles);
}

Result<ItemHandle> LabelStore::InsertAfter(ItemHandle pos, LeafCookie cookie) {
  WriteSection section(this);
  return InsertAfterImpl(pos, cookie);
}

Result<ItemHandle> LabelStore::InsertBefore(ItemHandle pos,
                                            LeafCookie cookie) {
  WriteSection section(this);
  return InsertBeforeImpl(pos, cookie);
}

Result<ItemHandle> LabelStore::PushBack(LeafCookie cookie) {
  WriteSection section(this);
  return PushBackImpl(cookie);
}

Result<ItemHandle> LabelStore::PushFront(LeafCookie cookie) {
  WriteSection section(this);
  return PushFrontImpl(cookie);
}

Status LabelStore::InsertBatchAfter(ItemHandle pos,
                                    std::span<const LeafCookie> cookies,
                                    std::vector<ItemHandle>* handles) {
  WriteSection section(this);
  return InsertBatchAfterImpl(pos, cookies, handles);
}

Status LabelStore::InsertBatchBefore(ItemHandle pos,
                                     std::span<const LeafCookie> cookies,
                                     std::vector<ItemHandle>* handles) {
  WriteSection section(this);
  return InsertBatchBeforeImpl(pos, cookies, handles);
}

Status LabelStore::PushBackBatch(std::span<const LeafCookie> cookies,
                                 std::vector<ItemHandle>* handles) {
  WriteSection section(this);
  return PushBackBatchImpl(cookies, handles);
}

Status LabelStore::Erase(ItemHandle h) {
  WriteSection section(this);
  return EraseImpl(h);
}

// --------------------------------------------------------------------------
// Guard-based concurrent reads.
// --------------------------------------------------------------------------

LabelStore::ReadGuard LabelStore::AcquireRead() const {
  ReadGuard guard;
  if (concurrency_mode() == ConcurrencyMode::kLockFreeReads) {
    guard.pin_ = epoch::ReadGuard(epoch_manager());
  } else {
    guard.lock_ = std::shared_lock<std::shared_mutex>(rw_mutex_);
  }
  return guard;
}

Result<Label> LabelStore::LabelOf(const ReadGuard& /*guard*/,
                                  ItemHandle h) const {
  return GetLabel(h);
}

Result<LeafCookie> LabelStore::CookieOf(const ReadGuard& /*guard*/,
                                        ItemHandle h) const {
  return GetCookie(h);
}

Result<int> LabelStore::CompareOrder(const ReadGuard& /*guard*/, ItemHandle a,
                                     ItemHandle b) const {
  const auto compare = [](Label la, Label lb) {
    return la < lb ? -1 : (la > lb ? 1 : 0);
  };
  if (concurrency_mode() == ConcurrencyMode::kSerializedReads) {
    // The guard's shared lock already excludes writers.
    LTREE_ASSIGN_OR_RETURN(Label la, GetLabel(a));
    LTREE_ASSIGN_OR_RETURN(Label lb, GetLabel(b));
    return compare(la, lb);
  }
  // Lock-free: both loads are individually safe; the seqlock detects a
  // relabel between them so the *pair* is consistent.
  constexpr int kSeqlockRetries = 64;
  for (int attempt = 0; attempt < kSeqlockRetries; ++attempt) {
    const uint64_t s1 = write_seq_.load(std::memory_order_seq_cst);
    if ((s1 & 1) != 0) continue;  // writer section open; spin
    auto la = GetLabel(a);
    auto lb = GetLabel(b);
    const uint64_t s2 = write_seq_.load(std::memory_order_seq_cst);
    if (s1 != s2) continue;  // a writer intervened; retry the pair
    if (!la.ok()) return la.status();
    if (!lb.ok()) return lb.status();
    return compare(*la, *lb);
  }
  // A writer kept the seqlock hot (e.g. a long rebuild burst): fall back
  // to a brief shared lock for one consistent pair.
  std::shared_lock<std::shared_mutex> lock(rw_mutex_);
  LTREE_ASSIGN_OR_RETURN(Label la, GetLabel(a));
  LTREE_ASSIGN_OR_RETURN(Label lb, GetLabel(b));
  return compare(la, lb);
}

std::vector<std::pair<Label, LeafCookie>> LabelStore::ScanAll(
    const ReadGuard& /*guard*/) const {
  std::vector<std::pair<Label, LeafCookie>> out;
  if (concurrency_mode() == ConcurrencyMode::kLockFreeReads) {
    // The guard only pins the epoch; structure walks need the writer
    // excluded for real.
    std::shared_lock<std::shared_mutex> lock(rw_mutex_);
    SnapshotImpl(&out);
  } else {
    // The guard's shared lock is already held (never double-lock a
    // shared_mutex on one thread).
    SnapshotImpl(&out);
  }
  return out;
}

// --------------------------------------------------------------------------
// Default batch paths: per-item insertion, preserving batch order. Schemes
// with a native single-rebalance batch (the L-Tree variants) override.
// A batch is all-or-nothing: on a mid-batch failure the already inserted
// items are erased again, so callers never see a half-applied batch.
// --------------------------------------------------------------------------

namespace {

Status FinishBatch(Status st, std::vector<ItemHandle>&& fresh,
                   std::vector<ItemHandle>* handles,
                   const std::function<Status(ItemHandle)>& erase) {
  if (!st.ok()) {
    for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
      (void)erase(*it);
    }
    return st;
  }
  if (handles != nullptr) {
    handles->insert(handles->end(), fresh.begin(), fresh.end());
  }
  return Status::OK();
}

}  // namespace

Status LabelStore::InsertBatchAfterImpl(ItemHandle pos,
                                        std::span<const LeafCookie> cookies,
                                        std::vector<ItemHandle>* handles) {
  std::vector<ItemHandle> fresh;
  Status st = Status::OK();
  ItemHandle anchor = pos;
  for (const LeafCookie cookie : cookies) {
    auto h = InsertAfterImpl(anchor, cookie);
    if (!h.ok()) {
      st = h.status();
      break;
    }
    anchor = *h;
    fresh.push_back(anchor);
  }
  return FinishBatch(std::move(st), std::move(fresh), handles,
                     [this](ItemHandle h) { return EraseImpl(h); });
}

Status LabelStore::InsertBatchBeforeImpl(ItemHandle pos,
                                         std::span<const LeafCookie> cookies,
                                         std::vector<ItemHandle>* handles) {
  if (cookies.empty()) return Status::OK();
  std::vector<ItemHandle> fresh;
  Status st = Status::OK();
  auto first = InsertBeforeImpl(pos, cookies[0]);
  if (!first.ok()) return first.status();
  ItemHandle anchor = *first;
  fresh.push_back(anchor);
  for (const LeafCookie cookie : cookies.subspan(1)) {
    auto h = InsertAfterImpl(anchor, cookie);
    if (!h.ok()) {
      st = h.status();
      break;
    }
    anchor = *h;
    fresh.push_back(anchor);
  }
  return FinishBatch(std::move(st), std::move(fresh), handles,
                     [this](ItemHandle h) { return EraseImpl(h); });
}

Status LabelStore::PushBackBatchImpl(std::span<const LeafCookie> cookies,
                                     std::vector<ItemHandle>* handles) {
  std::vector<ItemHandle> fresh;
  Status st = Status::OK();
  for (const LeafCookie cookie : cookies) {
    auto h = PushBackImpl(cookie);
    if (!h.ok()) {
      st = h.status();
      break;
    }
    fresh.push_back(*h);
  }
  return FinishBatch(std::move(st), std::move(fresh), handles,
                     [this](ItemHandle h) { return EraseImpl(h); });
}

}  // namespace listlab
}  // namespace ltree
