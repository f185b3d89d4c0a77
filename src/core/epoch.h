// Epoch-based reclamation for concurrently read pool-arena structures.
//
// The concurrent LabelStore read path lets reader threads hold raw node
// pointers (L-Tree leaves, counted-B+-tree nodes) while a serialized writer
// rebuilds the structure. Rebuilds recycle nodes through PoolArena free
// lists, and a recycled node is immediately overwritten by the next
// Allocate() — which must never happen under an in-flight reader. This
// module layers the classic three-epoch reclamation scheme on top of the
// arenas:
//
//  * readers pin the current epoch with a cheap RAII ReadGuard (one CAS to
//    claim a cache-line-aligned slot, one store to release it);
//  * the single serialized writer retires unlinked nodes into the current
//    epoch's bucket instead of releasing them to the arena, and after each
//    mutation tries to advance the global epoch — which succeeds only when
//    every active reader has caught up to the current epoch;
//  * advancing from epoch e to e+1 proves no reader pinned at e-2 or
//    earlier survives, so the bucket retired during epoch e-2 is handed to
//    its deleters (typically PoolArena::Release) and recycling proceeds.
//
// With no readers active, retirement degrades to a one-mutation delay: the
// writer's own advances drain the buckets. With readers present, memory is
// bounded by what one epoch of mutations can retire.
//
// Thread contract: Pin/Unpin (via ReadGuard) are thread-safe and lock-free.
// Retire/TryAdvance/ReclaimAllUnsafe/stats are writer-side and must be
// externally serialized, like the structure that owns the manager.

#ifndef LTREE_CORE_EPOCH_H_
#define LTREE_CORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ltree {
namespace epoch {

/// Reclamation counters. Writer-side fields are plain (single writer);
/// pins is written by readers and read by anyone.
struct EpochStats {
  uint64_t retired = 0;    ///< nodes handed to Retire()
  uint64_t reclaimed = 0;  ///< nodes whose deleter has run
  uint64_t advances = 0;   ///< successful epoch advances
  uint64_t stalls = 0;     ///< TryAdvance calls blocked by a pinned reader
  uint64_t pins = 0;       ///< ReadGuard acquisitions (lifetime)

  /// Nodes retired but not yet reclaimed (sitting in an epoch bucket).
  uint64_t pending() const { return retired - reclaimed; }
};

class EpochManager {
 public:
  /// Concurrent reader slots. Guard acquisition spins (yielding) when all
  /// slots are taken, so this bounds concurrency, not correctness.
  static constexpr uint32_t kMaxReaders = 64;

  /// Type-erased reclamation callback: typically
  /// `[](void* obj, void* ctx) { static_cast<Arena*>(ctx)->Release(obj); }`.
  using Deleter = void (*)(void* obj, void* ctx);

  EpochManager();
  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // ------------------------------------------------------------ reader side

  /// Claims a reader slot and announces the current epoch. Returns the slot
  /// id for Unpin. Prefer ReadGuard over calling this directly.
  uint32_t Pin();

  /// Releases the slot claimed by Pin.
  void Unpin(uint32_t slot);

  // ------------------------------------------------------------ writer side

  /// Defers `obj` into the current epoch's bucket; `fn(obj, ctx)` runs once
  /// no reader that could still observe `obj` remains. `obj` must already
  /// be unreachable from the live structure (published-unlink before
  /// retire is the caller's ordering obligation).
  void Retire(void* obj, Deleter fn, void* ctx);

  /// Advances the global epoch if every active reader has announced the
  /// current one, reclaiming the bucket that is now two epochs stale.
  /// No-op (returning false without counting a stall) when nothing is
  /// pending. Returns true iff the epoch advanced.
  bool TryAdvance();

  /// Runs every pending deleter regardless of epochs. Only legal when no
  /// reader is active (e.g. store teardown after joining reader threads);
  /// checked. Returns the number of nodes reclaimed.
  uint64_t ReclaimAllUnsafe();

  // --------------------------------------------------------------- queries

  uint64_t global_epoch() const {
    return global_.load(std::memory_order_acquire);
  }

  /// True if any reader slot is currently pinned.
  bool HasActiveReaders() const;

  /// Nodes retired but not yet reclaimed.
  uint64_t pending() const { return stats_.retired - stats_.reclaimed; }

  /// Snapshot of the counters (pins folded in from the readers' counter).
  EpochStats stats() const;

  /// Visits every pending retired object (all three buckets). Writer-side:
  /// must not race Retire/TryAdvance. The audit rule `epoch-reclamation`
  /// uses this to prove no retired node is still reachable.
  template <typename Fn>
  void ForEachPending(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      for (const Retired& r : bucket) fn(r.obj);
    }
  }

 private:
  struct Retired {
    void* obj;
    Deleter fn;
    void* ctx;
  };

  /// kIdle marks a free slot; claiming is a CAS kIdle -> epoch.
  static constexpr uint64_t kIdle = ~uint64_t{0};

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  /// Reclaims every entry of `bucket` (writer side).
  void Drain(std::vector<Retired>* bucket);

  // Epochs start at 2 so `epoch - 2` bucket arithmetic never underflows.
  std::atomic<uint64_t> global_{2};
  std::unique_ptr<ReaderSlot[]> slots_;
  /// buckets_[e % 3] holds nodes retired while the global epoch was e.
  std::vector<Retired> buckets_[3];
  EpochStats stats_;                  ///< writer-side fields
  std::atomic<uint64_t> pin_count_{0};  ///< reader-side lifetime pins
};

/// RAII epoch pin. Readers hold one guard across a sequence of reads; any
/// node reachable when the guard was acquired stays un-recycled until the
/// guard drops. Movable, not copyable. A default-constructed guard pins
/// nothing (used by schemes with no concurrent structure to protect).
class ReadGuard {
 public:
  ReadGuard() = default;
  explicit ReadGuard(EpochManager* manager)
      : manager_(manager), slot_(manager ? manager->Pin() : 0) {}
  ReadGuard(ReadGuard&& other) noexcept
      : manager_(other.manager_), slot_(other.slot_) {
    other.manager_ = nullptr;
  }
  ReadGuard& operator=(ReadGuard&& other) noexcept {
    if (this != &other) {
      Release();
      manager_ = other.manager_;
      slot_ = other.slot_;
      other.manager_ = nullptr;
    }
    return *this;
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  ~ReadGuard() { Release(); }

  bool pinned() const { return manager_ != nullptr; }

 private:
  void Release() {
    if (manager_ != nullptr) {
      manager_->Unpin(slot_);
      manager_ = nullptr;
    }
  }

  EpochManager* manager_ = nullptr;
  uint32_t slot_ = 0;
};

}  // namespace epoch
}  // namespace ltree

#endif  // LTREE_CORE_EPOCH_H_
