// ChangeFeed and StateVector mechanics: sequence numbering, bounded
// retention, delta servability, and — via ChangeFeedTestPeer — the
// negative direction of the feed-continuity audit rule (a corrupted feed
// MUST be reported with the right slug).

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "store/change_feed.h"
#include "store/state_vector.h"

namespace ltree {
namespace store {

/// Seeds corruptions for the negative feed-continuity tests.
class ChangeFeedTestPeer {
 public:
  static std::deque<FeedEvent>* events(ChangeFeed* feed) {
    return &feed->events_;
  }
  static uint64_t* trimmed(ChangeFeed* feed) { return &feed->trimmed_; }
  static uint64_t* last_seq(ChangeFeed* feed) { return &feed->last_seq_; }
};

namespace {

FeedEvent Insert(LeafCookie cookie, Label label) {
  return {.kind = FeedEvent::Kind::kInsert,
          .cookie = cookie,
          .new_label = label};
}

// ---------------------------------------------------------------------------
// Sequencing and retention
// ---------------------------------------------------------------------------

TEST(ChangeFeedTest, AppendAssignsContiguousSeqsFromOne) {
  ChangeFeed feed(16);
  EXPECT_EQ(feed.last_seq(), 0u);
  EXPECT_EQ(feed.first_retained_seq(), 1u);  // empty: floor is "next"
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(feed.Append(Insert(i, i * 10)), i);
  }
  EXPECT_EQ(feed.last_seq(), 5u);
  EXPECT_EQ(feed.retained(), 5u);
  EXPECT_EQ(feed.trimmed(), 0u);
  EXPECT_EQ(feed.first_retained_seq(), 1u);
}

TEST(ChangeFeedTest, CapacityEvictsOldestAndRaisesFloor) {
  ChangeFeed feed(4);
  for (uint64_t i = 0; i < 10; ++i) feed.Append(Insert(i, i));
  EXPECT_EQ(feed.last_seq(), 10u);
  EXPECT_EQ(feed.retained(), 4u);
  EXPECT_EQ(feed.trimmed(), 6u);
  EXPECT_EQ(feed.first_retained_seq(), 7u);
}

TEST(ChangeFeedTest, EventKindsRoundTripThroughToString) {
  ChangeFeed feed(8);
  feed.Append(Insert(42, 7));
  feed.Append({.kind = FeedEvent::Kind::kRelabel,
               .cookie = 42,
               .old_label = 7,
               .new_label = 9});
  feed.Append(
      {.kind = FeedEvent::Kind::kErase, .cookie = 42, .old_label = 9});
  const auto events = feed.EventsSince(0).ValueOrDie();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ToString(), "#1 insert cookie=42 new=7");
  EXPECT_EQ(events[1].ToString(), "#2 relabel cookie=42 old=7 new=9");
  EXPECT_EQ(events[2].ToString(), "#3 erase cookie=42 old=9");
}

// ---------------------------------------------------------------------------
// Delta servability
// ---------------------------------------------------------------------------

TEST(ChangeFeedTest, EventsSinceReturnsExactSuffix) {
  ChangeFeed feed(16);
  for (uint64_t i = 0; i < 8; ++i) feed.Append(Insert(i, i));
  EXPECT_TRUE(feed.CanServeFrom(0));
  EXPECT_EQ(feed.EventsSince(0).ValueOrDie().size(), 8u);
  const auto tail = feed.EventsSince(5).ValueOrDie();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 6u);
  EXPECT_EQ(tail[2].seq, 8u);
  EXPECT_TRUE(feed.EventsSince(8).ValueOrDie().empty());
}

TEST(ChangeFeedTest, CanServeFromRespectsTrimFloor) {
  ChangeFeed feed(4);
  for (uint64_t i = 0; i < 10; ++i) feed.Append(Insert(i, i));
  // Floor is 7: positions 6.. can still be served a delta, 5 cannot.
  EXPECT_FALSE(feed.CanServeFrom(5));
  EXPECT_TRUE(feed.CanServeFrom(6));
  EXPECT_EQ(feed.EventsSince(6).ValueOrDie().size(), 4u);
  EXPECT_TRUE(feed.CanServeFrom(10));
}

TEST(ChangeFeedTest, PositionsBeyondHeadAreRejected) {
  // A corrupt or future-dated peer request claims a position this feed
  // never published; it must be refused, not walked off the deque.
  ChangeFeed feed(16);
  EXPECT_FALSE(feed.CanServeFrom(1));  // empty feed: head is 0
  EXPECT_TRUE(feed.EventsSince(1).status().IsInvalidArgument());
  for (uint64_t i = 0; i < 8; ++i) feed.Append(Insert(i, i));
  EXPECT_TRUE(feed.CanServeFrom(8));
  EXPECT_FALSE(feed.CanServeFrom(9));
  EXPECT_FALSE(feed.CanServeFrom(~uint64_t{0}));
  const auto beyond = feed.EventsSince(9);
  ASSERT_FALSE(beyond.ok());
  EXPECT_TRUE(beyond.status().IsInvalidArgument());
  // Below the trim floor is also an error (the snapshot path's job).
  feed.TrimTo(2);
  const auto below = feed.EventsSince(0);
  ASSERT_FALSE(below.ok());
  EXPECT_TRUE(below.status().IsInvalidArgument());
}

TEST(ChangeFeedTest, TrimToForcesSnapshotTerritory) {
  ChangeFeed feed(64);
  for (uint64_t i = 0; i < 10; ++i) feed.Append(Insert(i, i));
  feed.TrimTo(2);
  EXPECT_EQ(feed.retained(), 2u);
  EXPECT_EQ(feed.trimmed(), 8u);
  EXPECT_EQ(feed.first_retained_seq(), 9u);
  EXPECT_FALSE(feed.CanServeFrom(0));
  EXPECT_TRUE(feed.CanServeFrom(8));
  feed.TrimTo(0);
  EXPECT_EQ(feed.retained(), 0u);
  EXPECT_EQ(feed.first_retained_seq(), 11u);
  // A fully trimmed log can only serve the subscriber already at the head.
  EXPECT_FALSE(feed.CanServeFrom(9));
  EXPECT_TRUE(feed.CanServeFrom(10));
}

// ---------------------------------------------------------------------------
// feed-continuity audit: positive and negative direction
// ---------------------------------------------------------------------------

TEST(ChangeFeedAuditTest, CleanFeedAuditsOk) {
  ChangeFeed feed(4);
  for (uint64_t i = 0; i < 10; ++i) feed.Append(Insert(i, i));
  feed.TrimTo(2);
  EXPECT_TRUE(feed.Validate().ok());
}

TEST(ChangeFeedAuditTest, SequenceGapIsReported) {
  ChangeFeed feed(16);
  for (uint64_t i = 0; i < 5; ++i) feed.Append(Insert(i, i));
  ChangeFeedTestPeer::events(&feed)->at(2).seq = 99;
  const audit::Report report = feed.Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("feed-continuity"));
}

TEST(ChangeFeedAuditTest, TrimCountMismatchIsReported) {
  ChangeFeed feed(16);
  for (uint64_t i = 0; i < 5; ++i) feed.Append(Insert(i, i));
  *ChangeFeedTestPeer::trimmed(&feed) = 3;  // nothing was actually trimmed
  const audit::Report report = feed.Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("feed-continuity"));
}

TEST(ChangeFeedAuditTest, StaleHeadIsReported) {
  ChangeFeed feed(16);
  for (uint64_t i = 0; i < 5; ++i) feed.Append(Insert(i, i));
  *ChangeFeedTestPeer::last_seq(&feed) = 7;  // claims events never appended
  const audit::Report report = feed.Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("feed-continuity"));
}

TEST(ChangeFeedAuditTest, OverCapacityIsReported) {
  ChangeFeed feed(2);
  for (uint64_t i = 0; i < 2; ++i) feed.Append(Insert(i, i));
  ChangeFeedTestPeer::events(&feed)->push_back(Insert(9, 9));
  ChangeFeedTestPeer::events(&feed)->back().seq = 3;
  const audit::Report report = feed.Validate();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("feed-continuity"));
}

// ---------------------------------------------------------------------------
// StateVector
// ---------------------------------------------------------------------------

TEST(StateVectorTest, AdvanceIsMonotonic) {
  StateVector sv(3);
  EXPECT_EQ(sv.seq(0), 0u);
  sv.Advance(1, 5);
  sv.Advance(1, 3);  // regression ignored
  EXPECT_EQ(sv.seq(1), 5u);
  sv.Set(1, 3);  // explicit override does regress
  EXPECT_EQ(sv.seq(1), 3u);
}

TEST(StateVectorTest, DominationAndLag) {
  StateVector a(3);
  StateVector b(3);
  a.Advance(0, 2);
  b.Advance(0, 5);
  b.Advance(2, 4);
  EXPECT_TRUE(a.DominatedBy(b));
  EXPECT_FALSE(b.DominatedBy(a));
  EXPECT_EQ(a.LagBehind(b), 7u);  // (5-2) + 0 + (4-0)
  EXPECT_EQ(b.LagBehind(a), 0u);
  a.Advance(0, 5);
  a.Advance(2, 4);
  EXPECT_TRUE(a == b);
}

TEST(StateVectorTest, ToStringIsCompact) {
  StateVector sv(4);
  sv.Advance(0, 17);
  sv.Advance(2, 4);
  sv.Advance(3, 9);
  EXPECT_EQ(sv.ToString(), "[17 0 4 9]");
}

}  // namespace
}  // namespace store
}  // namespace ltree
