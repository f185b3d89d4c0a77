// LabelStore: the unified order-maintenance / labeling interface.
//
// The paper frames XML label maintenance as "maintenance of an ordered
// list" (Section 2): assign integer labels to list items so that list order
// equals label order, and bound how many labels change per insertion. This
// header defines the single abstract interface every labeling scheme in
// this library implements:
//
//   * the L-Tree, materialized (LTreeStore) and virtual (VirtualLTreeStore)
//     — the paper's contribution (Sections 2-4);
//   * SequentialList — the Section 1 strawman (consecutive integers, suffix
//     shifts on insert, ~n/2 relabels on average);
//   * GapList — fixed gaps of size G, full renumbering when a gap fills;
//   * BenderList — density-scaled aligned-range relabeling in the spirit of
//     the order-maintenance literature the paper cites ([8, 9, 16]).
//
// Items are addressed by opaque, stable ItemHandles assigned by the store
// (no scheme-internal pointers leak), carry a client LeafCookie payload
// (e.g. an XML tag id), and report label changes through a RelabelListener,
// so the whole XML pipeline — parse, node table, label joins, fragment
// edits — can run unchanged over any scheme. Construct stores by spec
// string via listlab::MakeLabelStore (factory.h).
//
// ## Inserting
//
// Every insert goes through one entry point, Insert(where, pos, cookies):
// k consecutive items right after or before the anchor `pos`, or at the
// end of the list (Where::kBack). As in the paper, where a single insert
// (Section 2.3, Algorithm 1) is the Section 4.1 batch insert with k = 1,
// there is no separate single-item path: InsertAfter, InsertBefore,
// PushBack and their batch forms are one-line wrappers, and each scheme
// implements the one InsertImpl hook.
//
// ## Erase semantics
//
// Erase(h) removes the item from the order; the handle becomes invalid and
// every further operation on it fails (double-erase is FailedPrecondition
// in every scheme). What happens to the *label slot* is scheme-specific,
// and deliberately so — it is exactly the trade-off the paper discusses in
// Section 2.3:
//
//   * LTreeStore / VirtualLTreeStore — tombstone: the slot stays occupied
//     and keeps consuming leaf budget, no relabeling happens
//     (EraseSemantics::kTombstone). With Params::purge_tombstones_on_split
//     (spec suffix ":purge") tombstones are physically dropped whenever a
//     split rebuilds the subtree containing them
//     (EraseSemantics::kTombstonePurge).
//   * SequentialList / GapList / BenderList — physical unlink: the item
//     leaves the list immediately and its label value is vacated for reuse
//     by later insertions (EraseSemantics::kPhysical).
//
// Callers that care (benches measuring slot occupancy, the docstore's
// consistency checks) can query erase_semantics(); callers that only need
// "the handle is gone either way" need not.
//
// ## Reads
//
// There is one read API — LabelOf, CookieOf, CompareOrder and ScanAll —
// and every call names the guard that makes it safe:
//
//   auto guard = store->AcquireRead();  // or store->QuiescentRead()
//   auto label = store->LabelOf(guard, h);
//   auto cmp   = store->CompareOrder(guard, a, b);
//
// QuiescentRead holds no pin and no lock, so it costs nothing; it is for
// the writer's own thread between mutations and for any thread while the
// store is frozen. AcquireRead is for readers a writer can overlap:
// mutations are serialized by the store itself (each public mutation runs
// under an exclusive writer section), and any number of AcquireRead
// readers may run *during* one. What that guard costs depends on the
// scheme, reported by concurrency_mode():
//
//   * kLockFreeReads (ltree, virtual) — AcquireRead pins an epoch (one CAS;
//     no lock), and LabelOf/CookieOf/CompareOrder never block: they read
//     only atomically published slots and leaf fields, and the epoch keeps
//     any node a reader can still see from being recycled by a concurrent
//     rebuild. CompareOrder reads two labels; a store-wide seqlock makes
//     the pair consistent (readers retry over a relabel instead of
//     blocking).
//   * kSerializedReads (sequential, gap, bender) — AcquireRead takes a
//     shared lock on the writer mutex; reads are correct but exclude
//     writers for the guard's lifetime. Same API, documented fallback.
//
// ScanAll walks the structure, so it takes the shared lock unless its
// guard already holds it. The remaining const queries (size(),
// label_bits(), stats(), ...) keep the thread-compatible contract: safe
// concurrently with each other while no thread mutates. ResetStats() is a
// mutation and stays writer-side.

#ifndef LTREE_LISTLAB_ORDER_MAINTAINER_H_
#define LTREE_LISTLAB_ORDER_MAINTAINER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/epoch.h"
#include "core/maint_stats.h"
#include "core/params.h"
#include "core/relabel_listener.h"
#include "core/validate.h"

namespace ltree {
namespace listlab {

/// Opaque stable item handle (survives relabeling and rebalancing; only
/// Erase and store destruction invalidate it).
using ItemHandle = uint64_t;

/// Never a valid handle.
inline constexpr ItemHandle kInvalidItemHandle = ~ItemHandle{0};

/// Where LabelStore::Insert puts its items, relative to the anchor `pos`.
enum class Where {
  kAfter,   ///< right after `pos`
  kBefore,  ///< right before `pos`
  kBack,    ///< at the end of the list; `pos` is ignored
};

/// How Erase treats the label slot (see the header comment).
enum class EraseSemantics {
  kTombstone,       ///< slot stays occupied forever (L-Tree default)
  kTombstonePurge,  ///< tombstoned, dropped at the next covering rebuild
  kPhysical,        ///< unlinked immediately, label value reusable
};

/// The unified labeling interface. Mutations are serialized internally
/// (single exclusive writer at a time); every label and cookie read takes
/// a ReadGuard (see "Reads" in the header comment).
class LabelStore {
 public:
  virtual ~LabelStore() = default;

  /// Scheme name for bench tables (e.g. "ltree(f=16,s=4)").
  virtual std::string name() const = 0;

  /// What Erase does to the label slot (see the header comment).
  virtual EraseSemantics erase_semantics() const = 0;

  // ---------------------------------------------------------------- loading

  /// Loads `cookies.size()` items into an empty store in list order
  /// (Section 2.2 bulk load). If `handles` is non-null it receives one
  /// handle per cookie, in order. Does not fire the RelabelListener and
  /// does not count toward the incremental-maintenance statistics.
  Status BulkLoad(std::span<const LeafCookie> cookies,
                  std::vector<ItemHandle>* handles = nullptr);

  /// Convenience: bulk loads n items with cookies 0..n-1.
  Status BulkLoad(uint64_t n, std::vector<ItemHandle>* handles = nullptr);

  // ---------------------------------------------------------------- updates
  //
  // Every mutation below runs under the store's exclusive writer section:
  // it waits out guard-holding readers of serialized schemes, bumps the
  // seqlock so lock-free CompareOrder retries, and ticks the epoch so
  // retired nodes reclaim at quiescence. Callers need no external lock for
  // readers — but concurrent *mutations* still race each other's
  // planning; keep one writer per store (e.g. one writer thread, or the
  // DocumentStore's per-shard writer lock).

  /// The one insert path: inserts `cookies.size()` consecutive items right
  /// after (kAfter) or before (kBefore) the live item `pos`, or at the end
  /// of the list (kBack; `pos` is ignored, works on an empty store). The
  /// two L-Tree variants splice all k leaves and rebalance once (Section
  /// 4.1); the linked-list schemes place them one by one.
  ///
  /// All-or-nothing: `pos` is resolved first, so an unknown or erased
  /// anchor fails with NotFound even for an empty span, and a mid-batch
  /// failure erases the partial prefix before returning the error. On
  /// success returns the first of `cookies.size()` consecutive new handles
  /// (for an empty span, the handle the next insert will get) and appends
  /// all of them to `handles` if non-null.
  Result<ItemHandle> Insert(Where where, ItemHandle pos,
                            std::span<const LeafCookie> cookies,
                            std::vector<ItemHandle>* handles = nullptr);

  Result<ItemHandle> InsertAfter(ItemHandle pos, LeafCookie cookie) {
    return Insert(Where::kAfter, pos, {&cookie, 1});
  }
  Result<ItemHandle> InsertBefore(ItemHandle pos, LeafCookie cookie) {
    return Insert(Where::kBefore, pos, {&cookie, 1});
  }
  /// Works on an empty store.
  Result<ItemHandle> PushBack(LeafCookie cookie) {
    return Insert(Where::kBack, kInvalidItemHandle, {&cookie, 1});
  }
  Status InsertBatchAfter(ItemHandle pos, std::span<const LeafCookie> cookies,
                          std::vector<ItemHandle>* handles = nullptr) {
    return Insert(Where::kAfter, pos, cookies, handles).status();
  }
  Status InsertBatchBefore(ItemHandle pos, std::span<const LeafCookie> cookies,
                           std::vector<ItemHandle>* handles = nullptr) {
    return Insert(Where::kBefore, pos, cookies, handles).status();
  }
  /// Works on an empty store.
  Status PushBackBatch(std::span<const LeafCookie> cookies,
                       std::vector<ItemHandle>* handles = nullptr) {
    return Insert(Where::kBack, kInvalidItemHandle, cookies, handles).status();
  }

  /// Removes an item from the order (see "Erase semantics" above). Fails
  /// with NotFound for a handle the store never issued and with
  /// FailedPrecondition for an already erased handle — in every scheme.
  Status Erase(ItemHandle h);

  // ------------------------------------------------------------------ reads

  /// How cheap AcquireRead and the guard-based reads are for this scheme.
  enum class ConcurrencyMode {
    kLockFreeReads,    ///< epoch pin; reads never block a writer
    kSerializedReads,  ///< shared lock; reads exclude writers while held
  };

  virtual ConcurrencyMode concurrency_mode() const {
    return ConcurrencyMode::kSerializedReads;
  }

  /// Proof-of-protection token for the reads below. Movable; drop it to
  /// release the pin/lock. An AcquireRead guard is cheap but not free —
  /// hold one across a sequence of reads, not per call.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&&) = default;
    ReadGuard& operator=(ReadGuard&&) = default;

   private:
    // Only AcquireRead and QuiescentRead build one; the reads trust the
    // guard's promise that no writer can break them.
    friend class LabelStore;
    ReadGuard() = default;
    epoch::ReadGuard pin_;                      // lock-free schemes
    std::shared_lock<std::shared_mutex> lock_;  // serialized fallback
  };

  /// Acquires read protection appropriate for the scheme: an epoch pin
  /// (kLockFreeReads) or a shared lock (kSerializedReads). For readers a
  /// writer can overlap. Thread-safe.
  ReadGuard AcquireRead() const;

  /// A guard that holds no pin and no lock, for reads no writer can
  /// overlap: the writer's own thread between mutations, or any thread
  /// while the store is frozen.
  ReadGuard QuiescentRead() const { return ReadGuard(); }

  /// Current label of a live item. Order of labels == list order. NotFound
  /// for a handle the store never issued or has erased.
  Result<Label> LabelOf(const ReadGuard& /*guard*/, ItemHandle h) const {
    return LabelImpl(h);
  }

  /// The client payload attached at insertion time; errors as LabelOf.
  Result<LeafCookie> CookieOf(const ReadGuard& /*guard*/, ItemHandle h) const {
    return CookieImpl(h);
  }

  /// List-order comparison of two live items under a guard: -1, 0 or +1 as
  /// `a` precedes, equals or follows `b`. The label pair is read
  /// consistently: lock-free schemes retry over a concurrent relabel via
  /// the store seqlock (falling back to a brief shared lock if a writer
  /// keeps the seqlock hot); a serialized scheme's guard already excludes
  /// writers.
  Result<int> CompareOrder(const ReadGuard& guard, ItemHandle a,
                           ItemHandle b) const;

  /// (label, cookie) of every live item in list order. Walks the backing
  /// structure, so it briefly takes the shared lock unless `guard` already
  /// holds it (the one read that can wait on a writer).
  std::vector<std::pair<Label, LeafCookie>> ScanAll(
      const ReadGuard& guard) const;

  // ---------------------------------------------------------------- queries

  /// Live item count.
  virtual uint64_t size() const = 0;

  /// Bits needed to encode the largest label the scheme currently uses.
  virtual uint32_t label_bits() const = 0;

  /// Measured (L-Tree variants: arena chunks + node buffers, one policy
  /// with CountedBTree::ApproxHeapBytes) or estimated (linked-list
  /// schemes: item nodes + handle table) heap footprint in bytes. The
  /// sharded DocumentStore reports this per shard.
  virtual uint64_t ApproxHeapBytes() const = 0;

  /// Receives label-change notifications; may be nullptr.
  void set_listener(RelabelListener* listener) { listener_ = listener; }
  RelabelListener* listener() const { return listener_; }

  /// Cost counters since the last ResetStats() (see core/maint_stats.h),
  /// returned by value: a const read that writes nothing.
  virtual MaintStats stats() const = 0;
  virtual void ResetStats() = 0;

  /// Scheme-generic deep validator: audits the backing structure (L-Tree
  /// shape and labels, counted B+-tree, linked-list links) plus the
  /// store's own handle bookkeeping, reporting every violation instead of
  /// stopping at the first. Clean after every public call on every scheme.
  virtual audit::Report Validate() const = 0;

 protected:
#ifdef LISTLAB_VALIDATE
  /// Runs Validate() and aborts with the full report when it is not clean.
  /// Every scheme calls this after each mutating call; the call compiles
  /// to nothing unless the LISTLAB_VALIDATE CMake option is ON.
  void AutoValidate(const char* op) const;
#else
  void AutoValidate(const char* /*op*/) const {}
#endif

  // ------------------------------------------------- scheme implementation
  //
  // The public mutations are non-virtual wrappers: they enter the writer
  // section (exclusive lock + seqlock bump + epoch tick on exit) and
  // delegate to these. Implementations never lock — they already hold the
  // section — and call each other's *Impl forms, never the public API.

  virtual Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                              std::vector<ItemHandle>* handles) = 0;
  /// Insert's body (see Insert for the contract); returns the first new
  /// handle and leaves appending the rest to the wrapper.
  virtual Result<ItemHandle> InsertImpl(
      Where where, ItemHandle pos, std::span<const LeafCookie> cookies) = 0;
  virtual Status EraseImpl(ItemHandle h) = 0;

  // The read hooks. LabelImpl/CookieImpl back LabelOf/CookieOf/
  // CompareOrder and fail with NotFound for an unknown or erased handle;
  // lock-free schemes must keep them safe under a bare epoch pin.
  virtual Result<Label> LabelImpl(ItemHandle h) const = 0;
  virtual Result<LeafCookie> CookieImpl(ItemHandle h) const = 0;
  /// (label, cookie) of every live item in list order; called with the
  /// shared lock held (writers excluded).
  virtual void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const = 0;

  /// Epoch manager backing the scheme's lock-free reads; nullptr for
  /// serialized schemes. The writer section ticks it after each mutation.
  virtual epoch::EpochManager* epoch_manager() const { return nullptr; }

  /// RAII writer section used by the public mutation wrappers: exclusive
  /// lock (waits out serialized-scheme readers), seqlock held odd for the
  /// duration, epoch advanced at exit.
  class WriteSection {
   public:
    explicit WriteSection(LabelStore* store)
        : store_(store), lock_(store->rw_mutex_) {
      store_->write_seq_.fetch_add(1, std::memory_order_seq_cst);
    }
    ~WriteSection() {
      store_->write_seq_.fetch_add(1, std::memory_order_seq_cst);
      if (epoch::EpochManager* epoch = store_->epoch_manager()) {
        // Up to three advances (one per bucket) drain everything when no
        // reader is pinned, so quiescent arena accounting matches the
        // epoch-less behavior; a pinned reader stalls the advance and the
        // nodes stay pending, which is the point.
        for (int i = 0; i < 3 && epoch->TryAdvance(); ++i) {
        }
      }
    }
    WriteSection(const WriteSection&) = delete;
    WriteSection& operator=(const WriteSection&) = delete;

   private:
    LabelStore* store_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  RelabelListener* listener_ = nullptr;

  /// Writers exclusive; serialized-scheme guards and ScanAll shared.
  mutable std::shared_mutex rw_mutex_;
  /// Store-wide seqlock: odd while a writer section is open. Lock-free
  /// CompareOrder uses it to detect a concurrent relabel between its two
  /// label loads.
  std::atomic<uint64_t> write_seq_{0};
};

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_LISTLAB_ORDER_MAINTAINER_H_
