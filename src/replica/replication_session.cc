#include "replica/replication_session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace ltree {
namespace replica {

ReplicationSession::ReplicationSession(store::MirrorStore* mirror,
                                       Transport* transport, Clock* clock,
                                       const SessionOptions& options)
    : mirror_(mirror),
      transport_(transport),
      clock_(clock),
      options_(options),
      jitter_rng_(options.jitter_seed),
      applied_(mirror->num_shards(), 0) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.poison_after == 0) options_.poison_after = 1;
}

uint64_t ReplicationSession::NextBackoffMs(uint32_t attempt) {
  // attempt is the 1-based index of the attempt that just failed; cap the
  // shift so the doubling can't overflow before the clamp.
  const uint32_t exponent = std::min<uint32_t>(attempt - 1, 32);
  uint64_t backoff = std::min(options_.max_backoff_ms,
                              options_.base_backoff_ms << exponent);
  if (options_.jitter > 0 && backoff > 0) {
    const uint64_t spread =
        static_cast<uint64_t>(options_.jitter * static_cast<double>(backoff));
    if (spread > 0) backoff += jitter_rng_.Uniform(spread + 1);
  }
  return backoff;
}

void ReplicationSession::NoteViolation(const Status& violation) {
  ++stats_.protocol_violations;
  ++consecutive_violations_;
  if (consecutive_violations_ >= options_.poison_after && !poisoned_) {
    poisoned_ = true;
    poison_reason_ = violation.ToString();
  }
}

ReplicationSession::Attempt ReplicationSession::TryOnce(uint32_t shard,
                                                        Status* error) {
  ++stats_.attempts;

  // Resume point: re-read the mirror's position on EVERY attempt, so a
  // partially applied history (or a snapshot that jumped us forward) is
  // never replayed and a trim-during-retry degrades to the snapshot path.
  const uint64_t from_seq = mirror_->state_vector().seq(shard);
  // Fresh nonce per attempt: two byte-identical requests (same shard and
  // position, e.g. across rounds) still get distinguishable responses.
  const uint64_t nonce = ++last_nonce_;

  const std::vector<uint8_t> request =
      EncodeFrame(MakeCatchUpRequestFrame(shard, from_seq, nonce));
  Result<std::vector<uint8_t>> raw =
      transport_->Call(request, options_.request_timeout_ms);
  if (!raw.ok()) {
    if (raw.status().IsTimedOut()) {
      ++stats_.timeouts;
    } else {
      ++stats_.transport_errors;
    }
    *error = raw.status();
    return Attempt::kRetryable;
  }

  Result<Frame> decoded = DecodeFrame(*raw);
  if (!decoded.ok()) {
    // Line noise: the checksum (or structure check) caught damaged bytes.
    // Nothing was applied, so simply ask again.
    ++stats_.wire_corruptions;
    *error = decoded.status();
    return Attempt::kRetryable;
  }
  Frame& frame = *decoded;

  if (frame.type == FrameType::kError) {
    const Status server = ErrorFrameStatus(frame);
    *error = server;
    // Corruption here means the SERVER could not decode what it received —
    // our request was mangled in flight; TimedOut/IoError are transient
    // server-side failures (failpoints model these). All retryable.
    if (server.IsCorruption() || server.IsTimedOut() || server.IsIoError()) {
      ++stats_.server_retryable;
      return Attempt::kRetryable;
    }
    // The server understood a well-formed request and refused it: that is
    // a protocol-level disagreement, not weather. OutOfRange (an answer too
    // large to frame) lands here too: no retry can shrink it.
    NoteViolation(server);
    return Attempt::kViolation;
  }

  // Stale-delivery screen: under reordering/duplication the transport may
  // hand us a perfectly valid response to an EARLIER request — possibly
  // one that was byte-identical except for its nonce (an old empty delta
  // would otherwise be accepted as "caught up" while the head has moved
  // on), or a straggling registration Ack. The echoed nonce makes the
  // screen exact — and it runs BEFORE the type check, so any frame that
  // does not answer the request just sent (Acks and other nonce-less
  // types can never match) is network weather, retried without ever
  // counting against the peer.
  if (frame.nonce != nonce) {
    ++stats_.stale_responses;
    *error = Status::IoError("stale response (reordered or duplicated)");
    return Attempt::kRetryable;
  }
  // Our nonce with someone else's content: the server echoed the request
  // id but answered a different question — a protocol violation.
  if ((frame.type != FrameType::kDelta &&
       frame.type != FrameType::kSnapshot) ||
      frame.shard != shard ||
      (frame.type == FrameType::kDelta && frame.from_seq != from_seq) ||
      (frame.type == FrameType::kSnapshot && frame.to_seq < from_seq)) {
    *error = Status::Corruption(
        std::string("response nonce matches but content does not (type ") +
        FrameTypeName(frame.type) + ")");
    NoteViolation(*error);
    return Attempt::kViolation;
  }

  Result<store::CatchUpResult> result = ToCatchUpResult(std::move(frame));
  if (!result.ok()) {
    *error = result.status();
    NoteViolation(*error);
    return Attempt::kViolation;
  }
  const Status applied = mirror_->ApplyCatchUp(shard, *result);
  if (!applied.ok()) {
    // Checksummed, well-formed, addressed to us — and still semantically
    // wrong (sequence gap, unknown cookie, double apply). The mirror's
    // strict apply protocol is the last line of defense; repeated hits
    // poison the session.
    *error = applied;
    NoteViolation(applied);
    return Attempt::kViolation;
  }

  consecutive_violations_ = 0;
  if (result->snapshot) {
    ++stats_.snapshots_applied;
  } else {
    ++stats_.deltas_applied;
  }
  applied_[shard] = std::max(applied_[shard], result->to_seq);
  *error = Status::OK();
  return Attempt::kApplied;
}

Status ReplicationSession::SyncShard(uint32_t shard) {
  if (poisoned_) {
    return Status::FailedPrecondition("session poisoned: " + poison_reason_);
  }
  if (shard >= mirror_->num_shards()) {
    return Status::InvalidArgument("shard out of range");
  }

  Status last = Status::OK();
  for (uint32_t attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      const uint64_t backoff = NextBackoffMs(attempt - 1);
      ++stats_.backoffs;
      stats_.backoff_ms_total += backoff;
      clock_->SleepMs(backoff);
    }
    const Attempt outcome = TryOnce(shard, &last);
    if (outcome == Attempt::kApplied) {
      AutoValidate("SyncShard");
      return Status::OK();
    }
    if (poisoned_) {
      AutoValidate("SyncShard");
      return Status::FailedPrecondition("session poisoned: " + poison_reason_);
    }
  }
  AutoValidate("SyncShard");
  return Status::TimedOut("retry budget exhausted after " +
                          std::to_string(options_.max_attempts) +
                          " attempts; last error: " + last.ToString());
}

void ReplicationSession::RegisterPosition() {
  ++stats_.registration_attempts;
  const std::vector<uint8_t> request = EncodeFrame(
      MakeRegisterFrame(options_.subscriber_id, mirror_->state_vector()));
  Result<std::vector<uint8_t>> raw =
      transport_->Call(request, options_.request_timeout_ms);
  if (!raw.ok()) return;  // best-effort: trimming just stays conservative
  Result<Frame> decoded = DecodeFrame(*raw);
  if (decoded.ok() && decoded->type == FrameType::kAck) {
    ++stats_.registrations;
  }
}

Status ReplicationSession::SyncRound() {
  if (poisoned_) {
    return Status::FailedPrecondition("session poisoned: " + poison_reason_);
  }
  ++stats_.rounds;
  for (uint32_t shard = 0; shard < mirror_->num_shards(); ++shard) {
    LTREE_RETURN_IF_ERROR(SyncShard(shard));
  }
  if (options_.register_position) RegisterPosition();
  return Status::OK();
}

audit::Report ReplicationSession::Validate() const {
  audit::Report report;

  // Rule "session-state": poisoning and the violation streak agree.
  if (poisoned_ && consecutive_violations_ < options_.poison_after) {
    report.Add("session:/", "session-state",
               "poisoned with only " +
                   std::to_string(consecutive_violations_) +
                   " consecutive violations (threshold " +
                   std::to_string(options_.poison_after) + ")");
  }
  if (!poisoned_ && consecutive_violations_ >= options_.poison_after) {
    report.Add("session:/", "session-state",
               "violation streak " + std::to_string(consecutive_violations_) +
                   " reached threshold " +
                   std::to_string(options_.poison_after) +
                   " without poisoning");
  }
  if (consecutive_violations_ > stats_.protocol_violations) {
    report.Add("session:/", "session-state",
               "violation streak exceeds total protocol violations");
  }

  // Rule "session-accounting": every attempt landed in exactly one
  // outcome bucket.
  const uint64_t outcomes = stats_.timeouts + stats_.transport_errors +
                            stats_.wire_corruptions + stats_.stale_responses +
                            stats_.server_retryable +
                            stats_.protocol_violations +
                            stats_.deltas_applied + stats_.snapshots_applied;
  if (outcomes != stats_.attempts) {
    report.Add("session:/", "session-accounting",
               "attempt outcomes sum to " + std::to_string(outcomes) +
                   ", expected attempts = " + std::to_string(stats_.attempts));
  }
  if (stats_.registrations > stats_.registration_attempts) {
    report.Add("session:/", "session-accounting",
               "more registrations acked than attempted");
  }

  // Rule "session-progress": the mirror never slid back below a position
  // this session successfully applied.
  const store::StateVector& sv = mirror_->state_vector();
  for (uint32_t shard = 0; shard < mirror_->num_shards(); ++shard) {
    if (sv.seq(shard) < applied_[shard]) {
      report.Add("session:/shard" + std::to_string(shard), "session-progress",
                 "mirror position " + std::to_string(sv.seq(shard)) +
                     " regressed below applied high-water " +
                     std::to_string(applied_[shard]));
    }
  }
  return report;
}

void ReplicationSession::AutoValidate(const char* op) const {
#ifdef LISTLAB_VALIDATE
  audit::AbortIfViolated(Validate(), "ReplicationSession", op);
#else
  (void)op;
#endif
}

}  // namespace replica
}  // namespace ltree
