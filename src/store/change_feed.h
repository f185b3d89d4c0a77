// ChangeFeed: the versioned per-shard label event log.
//
// Every mutation a shard's LabelStore performs is recorded as a FeedEvent
// with a monotonically increasing per-shard sequence number:
//
//   * kInsert  — a new item entered the order at `new_label`;
//   * kRelabel — an existing live item moved `old_label` -> `new_label`
//     (tombstone shuffles are filtered out by the DocumentStore's feed tap
//     — the feed describes the evolution of the *live* label state);
//   * kErase   — an item left the order, last holding `old_label`.
//
// The log is bounded: past `capacity` retained events the oldest are
// trimmed (the trim floor only ever rises). A subscriber that presents a
// position at or above the floor gets the exact delta suffix; one that has
// fallen behind the floor must take a snapshot instead — the
// DocumentStore::CatchUp protocol (document_store.h) makes that decision
// per shard from the subscriber's StateVector.

#ifndef LTREE_STORE_CHANGE_FEED_H_
#define LTREE_STORE_CHANGE_FEED_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/relabel_listener.h"
#include "core/validate.h"

namespace ltree {
namespace store {

struct FeedEvent {
  enum class Kind : uint8_t { kInsert, kRelabel, kErase };

  uint64_t seq = 0;  ///< per-shard, contiguous, starting at 1
  Kind kind = Kind::kInsert;
  LeafCookie cookie = 0;
  Label old_label = kInvalidLabel;  ///< kRelabel/kErase; invalid for kInsert
  Label new_label = kInvalidLabel;  ///< kInsert/kRelabel; invalid for kErase

  std::string ToString() const;
};

const char* FeedEventKindName(FeedEvent::Kind kind);

/// Bounded, versioned, in-memory event log for one shard. Thread
/// compatibility matches the rest of the library: const reads may run
/// concurrently; Append/TrimTo require external synchronization.
class ChangeFeed {
 public:
  /// `capacity` is the max number of retained events (>= 1).
  explicit ChangeFeed(uint64_t capacity);

  ChangeFeed(const ChangeFeed&) = delete;
  ChangeFeed& operator=(const ChangeFeed&) = delete;

  /// Stamps `event` with the next sequence number, appends it, trims the
  /// oldest event if the log is over capacity, and returns the assigned
  /// sequence number.
  uint64_t Append(FeedEvent event);

  /// Highest sequence number ever assigned (0 before the first Append).
  uint64_t last_seq() const { return last_seq_; }

  /// Sequence number of the oldest retained event; last_seq() + 1 when the
  /// log is empty. Below this floor only snapshots can catch a subscriber
  /// up.
  uint64_t first_retained_seq() const {
    return events_.empty() ? last_seq_ + 1 : events_.front().seq;
  }

  uint64_t retained() const { return events_.size(); }

  /// Events dropped by capacity eviction or TrimTo so far.
  uint64_t trimmed() const { return trimmed_; }

  uint64_t capacity() const { return capacity_; }

  /// True iff the retained window still contains every event after
  /// `from_seq` — i.e. a subscriber at `from_seq` can be served a delta.
  /// A `from_seq` beyond last_seq() claims a future this feed never
  /// published (a corrupt or future-dated peer request) and is never
  /// servable.
  bool CanServeFrom(uint64_t from_seq) const {
    return from_seq <= last_seq_ && from_seq + 1 >= first_retained_seq();
  }

  /// The events with sequence numbers in (from_seq, last_seq()], oldest
  /// first. InvalidArgument when !CanServeFrom(from_seq): a position
  /// beyond last_seq() is a protocol violation by the requesting peer, one
  /// below the trim floor needs the snapshot path instead.
  Result<std::vector<FeedEvent>> EventsSince(uint64_t from_seq) const;

  /// Drops the oldest retained events until at most `keep` remain — the
  /// manual trim-policy knob (tests use it to force the snapshot path; a
  /// production policy would call it on a memory budget).
  void TrimTo(uint64_t keep);

  /// Reports feed-continuity violations under the path "/feed" (a store
  /// prefixes its shard): retained sequence numbers must be contiguous, end
  /// at last_seq(), and respect both the capacity bound and trimmed-count
  /// conservation (trimmed + retained == last_seq).
  audit::Report Validate() const;

 private:
  friend class ChangeFeedTestPeer;  // seeds corruptions in negative tests

  uint64_t capacity_;
  uint64_t last_seq_ = 0;
  uint64_t trimmed_ = 0;
  std::deque<FeedEvent> events_;
};

}  // namespace store
}  // namespace ltree

#endif  // LTREE_STORE_CHANGE_FEED_H_
