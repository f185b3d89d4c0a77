// ReplicationSession tests: clean sync, retry/backoff schedule on the
// fake clock, resume-from-StateVector across retries, snapshot
// degradation after a mid-retry trim, stale-response screening, the
// poisoned terminal state, registration, and the session audit rules.

#include "replica/replication_session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "replica/clock.h"
#include "replica/transport.h"
#include "replica/wire_format.h"
#include "store/document_store.h"
#include "store/mirror_store.h"

namespace ltree {
namespace replica {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store::DocStoreOptions options;
    options.num_shards = 4;
    options.scheme_spec = "ltree:16:4";
    options.feed_capacity = 4096;
    auto made = store::DocumentStore::Make(options);
    ASSERT_TRUE(made.ok());
    primary_ = std::move(*made);
    for (store::DocId doc = 0; doc < 4; ++doc) {
      ASSERT_TRUE(primary_->CreateDocument(doc).ok());
      for (int i = 0; i < 20; ++i) ASSERT_TRUE(primary_->Append(doc).ok());
    }
    endpoint_ = std::make_unique<PrimaryEndpoint>(primary_.get(),
                                                  primary_.get());
    mirror_ = std::make_unique<store::MirrorStore>(primary_->num_shards());
  }

  void TearDown() override { failpoint::DisarmAll(); }

  SessionOptions DefaultOptions() {
    SessionOptions options;
    options.request_timeout_ms = 50;
    options.max_attempts = 10;
    options.base_backoff_ms = 2;
    options.max_backoff_ms = 64;
    options.jitter = 0;  // exact backoff assertions
    options.poison_after = 3;
    return options;
  }

  std::unique_ptr<store::DocumentStore> primary_;
  std::unique_ptr<PrimaryEndpoint> endpoint_;
  std::unique_ptr<store::MirrorStore> mirror_;
  FakeClock clock_;
};

TEST_F(SessionTest, CleanRoundConverges) {
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             DefaultOptions());
  ASSERT_TRUE(session.SyncRound().ok());
  EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  EXPECT_EQ(session.stats().attempts, primary_->num_shards());
  EXPECT_EQ(session.stats().backoffs, 0u);
  EXPECT_EQ(session.stats().deltas_applied, primary_->num_shards());
  EXPECT_EQ(session.stats().registrations, 1u);
  EXPECT_EQ(primary_->num_subscribers(), 1u);
  EXPECT_TRUE(session.Validate().ok()) << session.Validate().ToString();
}

TEST_F(SessionTest, RetriesThroughTransientServerOutageWithBackoff) {
  // Three serving failures, then service resumes: the session must retry
  // through them and land converged.
  failpoint::Arm("replica.serve", Status::TimedOut("outage"), /*times=*/3);
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             DefaultOptions());
  ASSERT_TRUE(session.SyncShard(0).ok());
  EXPECT_EQ(session.stats().server_retryable, 3u);
  EXPECT_EQ(session.stats().backoffs, 3u);
  // Deterministic schedule with jitter 0: 2, 4, 8.
  EXPECT_EQ(clock_.sleeps(), (std::vector<uint64_t>{2, 4, 8}));
  EXPECT_TRUE(session.Validate().ok());
}

TEST_F(SessionTest, BackoffIsCappedAndJitterBounded) {
  SessionOptions options = DefaultOptions();
  options.jitter = 0.5;
  options.max_attempts = 8;
  options.base_backoff_ms = 4;
  options.max_backoff_ms = 16;
  failpoint::Arm("replica.serve", Status::TimedOut("outage"));  // unbounded
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             options);
  EXPECT_TRUE(session.SyncShard(0).IsTimedOut());
  ASSERT_EQ(clock_.sleeps().size(), 7u);  // max_attempts - 1 backoffs
  const std::vector<uint64_t> base = {4, 8, 16, 16, 16, 16, 16};
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_GE(clock_.sleeps()[i], base[i]) << i;
    EXPECT_LE(clock_.sleeps()[i], base[i] + base[i] / 2) << i;
  }
}

TEST_F(SessionTest, ResumesFromStateVectorAcrossRetries) {
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             DefaultOptions());
  ASSERT_TRUE(session.SyncRound().ok());
  const uint64_t applied_before = session.stats().deltas_applied;

  // More writes, then a transient outage: the retry must ask from the
  // mirror's CURRENT position, not from zero — the delta that finally
  // lands is the small suffix, which strict ApplyCatchUp only accepts if
  // from_seq matches exactly.
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(primary_->Append(0).ok());
  failpoint::Arm("replica.serve", Status::TimedOut("blip"), /*times=*/2);
  ASSERT_TRUE(session.SyncRound().ok());
  EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  EXPECT_GT(session.stats().deltas_applied, applied_before);
  EXPECT_EQ(session.stats().snapshots_applied, 0u);
}

TEST_F(SessionTest, DegradesToSnapshotWhenFeedTrimmedMidRetry) {
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             DefaultOptions());
  ASSERT_TRUE(session.SyncRound().ok());

  // While the session is cut off (every serve fails), the primary keeps
  // writing and trims its feeds far past the mirror's position.
  failpoint::Arm("replica.serve", Status::TimedOut("partition"), /*times=*/2);
  for (store::DocId doc = 0; doc < 4; ++doc) {
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(primary_->Append(doc).ok());
  }
  primary_->TrimFeeds(/*keep=*/1);

  ASSERT_TRUE(session.SyncRound().ok());
  EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  EXPECT_GT(session.stats().snapshots_applied, 0u);
}

TEST_F(SessionTest, StaleDeliveriesAreScreenedNotApplied) {
  // Pure-reorder transport: every fresh response is held one exchange.
  FaultOptions faults;
  faults.seed = 17;
  faults.reorder = 0.4;
  FaultyTransport transport(endpoint_.get(), &clock_, faults);
  ReplicationSession session(mirror_.get(), &transport, &clock_,
                             DefaultOptions());

  for (int round = 0; round < 5; ++round) {
    for (store::DocId doc = 0; doc < 4; ++doc) {
      ASSERT_TRUE(primary_->Append(doc).ok());
    }
    const Status round_status = session.SyncRound();
    ASSERT_TRUE(round_status.ok()) << round_status.ToString();
    EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  }
  // Reordering fired, so stale screening must have fired too — and no
  // stale delivery ever became a protocol violation.
  EXPECT_GT(transport.stats().reorders, 0u);
  EXPECT_GT(session.stats().stale_responses, 0u);
  EXPECT_EQ(session.stats().protocol_violations, 0u);
  EXPECT_TRUE(session.Validate().ok()) << session.Validate().ToString();
}

// A transport that answers every request with a fixed frame (the
// request's nonce echoed, so the response passes the stale screen) —
// protocol-violating responses on demand.
class CannedTransport : public Transport {
 public:
  explicit CannedTransport(Frame response) : response_(std::move(response)) {}
  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                    uint64_t timeout_ms) override {
    (void)timeout_ms;
    const Result<Frame> decoded = DecodeFrame(request);
    if (decoded.ok()) response_.nonce = decoded->nonce;
    return EncodeFrame(response_);
  }

 private:
  Frame response_;
};

TEST_F(SessionTest, PersistentProtocolViolationsPoisonTheSession) {
  // A well-formed delta for the right shard/position but with a sequence
  // gap: decodes fine, fails strict apply — a protocol violation.
  Frame bad;
  bad.type = FrameType::kDelta;
  bad.shard = 0;
  bad.from_seq = 0;
  bad.to_seq = 2;
  store::FeedEvent event;
  event.seq = 2;  // gap: mirror expects seq 1 first
  event.kind = store::FeedEvent::Kind::kInsert;
  event.cookie = 99;
  event.new_label = 7;
  bad.events.push_back(event);
  CannedTransport transport(bad);

  SessionOptions options = DefaultOptions();
  options.poison_after = 3;
  ReplicationSession session(mirror_.get(), &transport, &clock_, options);

  const Status st = session.SyncShard(0);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_TRUE(session.poisoned());
  EXPECT_EQ(session.consecutive_violations(), 3u);
  EXPECT_EQ(session.stats().protocol_violations, 3u);
  // Poisoned is terminal: no further attempts happen.
  const uint64_t attempts = session.stats().attempts;
  EXPECT_TRUE(session.SyncShard(0).IsFailedPrecondition());
  EXPECT_TRUE(session.SyncRound().IsFailedPrecondition());
  EXPECT_EQ(session.stats().attempts, attempts);
  EXPECT_TRUE(session.Validate().ok()) << session.Validate().ToString();
}

TEST_F(SessionTest, OversizedResponseIsViolationNotWeather) {
  // The endpoint's answer to a response too large to frame: retrying
  // cannot shrink it, so it counts against the peer, not the network.
  CannedTransport transport(MakeErrorFrame(
      Status::OutOfRange("snapshot payload exceeds the frame limit")));
  SessionOptions options = DefaultOptions();
  options.poison_after = 3;
  ReplicationSession session(mirror_.get(), &transport, &clock_, options);

  const Status st = session.SyncShard(0);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_TRUE(session.poisoned());
  EXPECT_EQ(session.stats().protocol_violations, 3u);
  EXPECT_EQ(session.stats().wire_corruptions, 0u);
  EXPECT_EQ(session.stats().server_retryable, 0u);
  EXPECT_NE(session.poison_reason().find("OutOfRange"), std::string::npos)
      << session.poison_reason();
}

TEST_F(SessionTest, SuccessResetsTheViolationStreak) {
  // Two violations, then service recovers: the streak must reset and the
  // session must stay healthy.
  failpoint::Arm("replica.serve", Status::InvalidArgument("bad peer"),
                 /*times=*/2);
  SessionOptions options = DefaultOptions();
  options.poison_after = 3;
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             options);
  ASSERT_TRUE(session.SyncShard(0).ok());
  EXPECT_FALSE(session.poisoned());
  EXPECT_EQ(session.consecutive_violations(), 0u);
  EXPECT_EQ(session.stats().protocol_violations, 2u);
}

TEST_F(SessionTest, WireCorruptionIsRetryableNotViolation) {
  FaultOptions faults;
  faults.seed = 23;
  faults.bit_flip = 0.5;
  FaultyTransport transport(endpoint_.get(), &clock_, faults);
  SessionOptions options = DefaultOptions();
  options.max_attempts = 40;
  ReplicationSession session(mirror_.get(), &transport, &clock_, options);

  ASSERT_TRUE(session.SyncRound().ok());
  EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  // Flips hit either the response (client-side decode failure) or the
  // request (server echoes Corruption); both are retryable weather.
  EXPECT_GT(session.stats().wire_corruptions + session.stats().server_retryable,
            0u);
  EXPECT_EQ(session.stats().protocol_violations, 0u);
  EXPECT_FALSE(session.poisoned());
}

TEST_F(SessionTest, RegistrationFeedsSubscriberAwareTrimming) {
  SessionOptions options = DefaultOptions();
  options.subscriber_id = 42;
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             options);
  ASSERT_TRUE(session.SyncRound().ok());
  ASSERT_EQ(primary_->num_subscribers(), 1u);

  // The registered position is the mirror's converged head, so trimming
  // to the slowest subscriber can drop every retained event.
  for (uint32_t shard = 0; shard < primary_->num_shards(); ++shard) {
    EXPECT_EQ(primary_->SlowestSubscriberSeq(shard),
              mirror_->state_vector().seq(shard));
  }
  EXPECT_GT(primary_->TrimToSlowestSubscriber(), 0u);
  // And the next delta sync still works: nothing the mirror needs was
  // dropped.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(primary_->Append(0).ok());
  ASSERT_TRUE(session.SyncRound().ok());
  EXPECT_TRUE(mirror_->CheckEquivalent(*primary_).ok());
  EXPECT_EQ(session.stats().snapshots_applied, 0u);
}

TEST_F(SessionTest, ShardOutOfRangeIsInvalidArgument) {
  ReplicationSession session(mirror_.get(), endpoint_.get(), &clock_,
                             DefaultOptions());
  EXPECT_TRUE(session.SyncShard(99).IsInvalidArgument());
}

}  // namespace
}  // namespace replica
}  // namespace ltree
