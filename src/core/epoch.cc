#include "core/epoch.h"

#include <thread>

#include "common/macros.h"

namespace ltree {
namespace epoch {

EpochManager::EpochManager() : slots_(new ReaderSlot[kMaxReaders]) {}

EpochManager::~EpochManager() {
  // Owners drain before tearing down the backing arenas; anything left here
  // belongs to arenas that are still alive (e.g. a store destroyed without
  // ever reclaiming).
  LTREE_CHECK(!HasActiveReaders());
  for (auto& bucket : buckets_) Drain(&bucket);
}

uint32_t EpochManager::Pin() {
  for (;;) {
    for (uint32_t i = 0; i < kMaxReaders; ++i) {
      uint64_t expected = kIdle;
      // Claim + announce in one CAS: a slot is free iff it holds kIdle.
      if (slots_[i].epoch.compare_exchange_strong(
              expected, global_.load(std::memory_order_seq_cst),
              std::memory_order_seq_cst)) {
        // Re-announce until the announcement matches the global epoch: a
        // writer advancing concurrently must either observe our pin or be
        // observed by us, so our epoch is never stale by more than the
        // loop's last iteration.
        uint64_t announced = slots_[i].epoch.load(std::memory_order_relaxed);
        for (;;) {
          const uint64_t g = global_.load(std::memory_order_seq_cst);
          if (g == announced) break;
          slots_[i].epoch.store(g, std::memory_order_seq_cst);
          announced = g;
        }
        pin_count_.fetch_add(1, std::memory_order_relaxed);
        return i;
      }
    }
    std::this_thread::yield();  // all slots busy; readers are short-lived
  }
}

void EpochManager::Unpin(uint32_t slot) {
  LTREE_DCHECK(slot < kMaxReaders);
  slots_[slot].epoch.store(kIdle, std::memory_order_release);
}

void EpochManager::Retire(void* obj, Deleter fn, void* ctx) {
  const uint64_t e = global_.load(std::memory_order_relaxed);
  buckets_[e % 3].push_back(Retired{obj, fn, ctx});
  ++stats_.retired;
}

bool EpochManager::TryAdvance() {
  if (pending() == 0) return false;  // nothing to reclaim; skip the scan
  const uint64_t e = global_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < kMaxReaders; ++i) {
    const uint64_t s = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (s != kIdle && s != e) {
      ++stats_.stalls;
      return false;  // a reader is still in an older epoch
    }
  }
  global_.store(e + 1, std::memory_order_seq_cst);
  ++stats_.advances;
  // The bucket slot for the new epoch held nodes retired at e - 2. Readers
  // that could observe them were pinned at <= e - 1 — and advancing twice
  // since then proved none remain.
  Drain(&buckets_[(e + 1) % 3]);
  return true;
}

uint64_t EpochManager::ReclaimAllUnsafe() {
  LTREE_CHECK(!HasActiveReaders());
  const uint64_t before = stats_.reclaimed;
  for (auto& bucket : buckets_) Drain(&bucket);
  return stats_.reclaimed - before;
}

bool EpochManager::HasActiveReaders() const {
  for (uint32_t i = 0; i < kMaxReaders; ++i) {
    if (slots_[i].epoch.load(std::memory_order_seq_cst) != kIdle) return true;
  }
  return false;
}

EpochStats EpochManager::stats() const {
  EpochStats out = stats_;
  out.pins = pin_count_.load(std::memory_order_relaxed);
  return out;
}

void EpochManager::Drain(std::vector<Retired>* bucket) {
  for (const Retired& r : *bucket) {
    r.fn(r.obj, r.ctx);
    ++stats_.reclaimed;
  }
  bucket->clear();  // keeps capacity for the next epoch's retires
}

}  // namespace epoch
}  // namespace ltree
