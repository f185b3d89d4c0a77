#include "listlab/order_maintainer.h"

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

Result<ItemHandle> LabelStore::Insert(Where where, ItemHandle pos,
                                      std::span<const LeafCookie> cookies,
                                      std::vector<ItemHandle>* handles) {
  WriteSection section(this);
  Result<ItemHandle> first = InsertImpl(where, pos, cookies);
  if (first.ok() && handles != nullptr) {
    for (ItemHandle h = *first; h < *first + cookies.size(); ++h) {
      handles->push_back(h);
    }
  }
  return first;
}

Status LabelStore::Erase(ItemHandle h) {
  WriteSection section(this);
  return EraseImpl(h);
}

// --------------------------------------------------------------------------
// Reads: every one takes a guard.
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

Result<int> LabelStore::CompareOrder(const ReadGuard& /*guard*/, ItemHandle a,
                                     ItemHandle b) const {
  const auto compare = [](Label la, Label lb) {
    return la < lb ? -1 : (la > lb ? 1 : 0);
  };
  if (concurrency_mode() == ConcurrencyMode::kSerializedReads) {
    // The guard's shared lock (or quiescence) already excludes writers.
    LTREE_ASSIGN_OR_RETURN(Label la, LabelImpl(a));
    LTREE_ASSIGN_OR_RETURN(Label lb, LabelImpl(b));
    return compare(la, lb);
  }
  // Lock-free: both loads are individually safe; the seqlock detects a
  // relabel between them so the *pair* is consistent.
  constexpr int kSeqlockRetries = 64;
  for (int attempt = 0; attempt < kSeqlockRetries; ++attempt) {
    const uint64_t s1 = write_seq_.load(std::memory_order_seq_cst);
    if ((s1 & 1) != 0) continue;  // writer section open; spin
    auto la = LabelImpl(a);
    auto lb = LabelImpl(b);
    const uint64_t s2 = write_seq_.load(std::memory_order_seq_cst);
    if (s1 != s2) continue;  // a writer intervened; retry the pair
    if (!la.ok()) return la.status();
    if (!lb.ok()) return lb.status();
    return compare(*la, *lb);
  }
  // A writer kept the seqlock hot (e.g. a long rebuild burst): fall back
  // to a brief shared lock for one consistent pair.
  std::shared_lock<std::shared_mutex> lock(rw_mutex_);
  LTREE_ASSIGN_OR_RETURN(Label la, LabelImpl(a));
  LTREE_ASSIGN_OR_RETURN(Label lb, LabelImpl(b));
  return compare(la, lb);
}

std::vector<std::pair<Label, LeafCookie>> LabelStore::ScanAll(
    const ReadGuard& guard) const {
  // An epoch pin or a QuiescentRead guard holds no lock, and the walk
  // needs writers excluded for real. Never lock it twice on one thread.
  std::shared_lock<std::shared_mutex> lock(rw_mutex_, std::defer_lock);
  if (!guard.lock_.owns_lock()) lock.lock();
  std::vector<std::pair<Label, LeafCookie>> out;
  SnapshotImpl(&out);
  return out;
}

}  // namespace listlab
}  // namespace ltree
