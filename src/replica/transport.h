// Byte-boundary transports for the replication protocol.
//
// The replication session never touches a DocumentStore directly: every
// exchange is encoded request bytes in, response bytes out, through the
// Transport interface. Two implementations live here:
//
//   * PrimaryEndpoint — the "server": decodes a request frame, serves it
//     from a DocumentStore (CatchUp / RegisterSubscriber), and encodes
//     the response frame. Malformed requests come back as kError
//     (Corruption) frames; store-level errors cross the boundary as
//     kError frames carrying the original status code, and an answer
//     too large to frame comes back as an OutOfRange kError frame. The
//     "replica.serve" failpoint fires before any decoding so server-side
//     outages are injectable.
//
//   * FaultyTransport — the hostile network between session and endpoint:
//     an in-memory decorator with deterministic seeded fault injection.
//     Each fault class models a real failure mode of a byte boundary:
//       - drop:      request or response vanishes; the caller times out;
//       - stall:     delivery is delayed; past the deadline it times out;
//       - truncate:  the response loses its tail (checksum catches it);
//       - bit_flip:  one random bit of the response flips (ditto);
//       - duplicate: a copy of an OLD response is delivered instead of
//                    the fresh one (late duplicate overtakes);
//       - reorder:   the fresh response is held back (this exchange times
//                    out) and delivered during a LATER exchange, in place
//                    of that exchange's fresh response.
//     All randomness flows from one seed, and time from the injected
//     Clock, so every chaos run is reproducible bit-for-bit.

#ifndef LTREE_REPLICA_TRANSPORT_H_
#define LTREE_REPLICA_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "replica/clock.h"
#include "replica/wire_format.h"
#include "store/document_store.h"

namespace ltree {
namespace replica {

class Transport {
 public:
  virtual ~Transport() = default;

  /// One request/response exchange. `timeout_ms` bounds the exchange: an
  /// implementation that cannot deliver a response within it returns
  /// Status::TimedOut. The returned bytes are whatever arrived — possibly
  /// corrupted; the caller must decode defensively.
  virtual Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request, uint64_t timeout_ms) = 0;
};

/// Serves a DocumentStore over the wire protocol (the in-process stand-in
/// for a network server; the protocol layer is what a socket version
/// would reuse unchanged).
class PrimaryEndpoint : public Transport {
 public:
  explicit PrimaryEndpoint(const store::DocumentStore* primary,
                           store::DocumentStore* registry = nullptr)
      : primary_(primary), registry_(registry) {}

  /// Never returns a transport-level error itself: every outcome —
  /// including a request that fails to decode — is a response frame, so
  /// the client side exercises its full decode/violation handling.
  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                    uint64_t timeout_ms) override;

  uint64_t requests_served() const { return requests_served_; }
  uint64_t bad_requests() const { return bad_requests_; }

 private:
  std::vector<uint8_t> Serve(const std::vector<uint8_t>& request);

  const store::DocumentStore* primary_;
  /// Mutable alias of `primary_` for kRegister requests; nullptr makes
  /// registration NotImplemented (read-only endpoint).
  store::DocumentStore* registry_;
  uint64_t requests_served_ = 0;
  uint64_t bad_requests_ = 0;
};

/// Per-class injection probabilities, each in [0, 1]. A class with
/// probability 0 never fires, so a chaos run can isolate one fault mode.
struct FaultOptions {
  uint64_t seed = 1;
  double drop = 0;
  double stall = 0;
  double truncate = 0;
  double bit_flip = 0;
  double duplicate = 0;
  double reorder = 0;
  /// Simulated network delay for a stalled delivery; at or past the
  /// caller's timeout the response is lost to the deadline.
  uint64_t stall_ms = 100;
};

/// How many times each fault class actually fired — chaos tests assert
/// the run really exercised its class.
struct FaultStats {
  uint64_t calls = 0;
  uint64_t clean = 0;  ///< exchanges delivered unmolested
  uint64_t drops = 0;
  uint64_t stalls = 0;
  uint64_t truncations = 0;
  uint64_t bit_flips = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
};

class FaultyTransport : public Transport {
 public:
  /// `inner` and `clock` are borrowed and must outlive the transport.
  FaultyTransport(Transport* inner, Clock* clock, const FaultOptions& options)
      : inner_(inner), clock_(clock), options_(options), rng_(options.seed) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                    uint64_t timeout_ms) override;

  const FaultStats& stats() const { return stats_; }

 private:
  /// Applies byte-level damage (truncate / bit-flip) in place; returns
  /// true if anything was damaged.
  bool MaybeDamage(std::vector<uint8_t>* bytes);

  Transport* inner_;
  Clock* clock_;
  FaultOptions options_;
  Rng rng_;
  FaultStats stats_;
  /// Response mailbox for reorder faults: a delayed response waits here
  /// and is delivered in place of a later one.
  std::deque<std::vector<uint8_t>> delayed_;
  /// Copy of the last delivered response, replayed by duplicate faults.
  std::vector<uint8_t> last_delivered_;
};

}  // namespace replica
}  // namespace ltree

#endif  // LTREE_REPLICA_TRANSPORT_H_
