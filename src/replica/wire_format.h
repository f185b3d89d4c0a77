// Replication wire protocol: length-prefixed, CRC32C-checksummed,
// versioned binary frames.
//
// Everything the change-feed sync protocol exchanges (see
// store/document_store.h) crosses the replication boundary as one frame:
//
//   offset 0  : magic 'L' 'R'            (2 bytes)
//   offset 2  : protocol version         (1 byte, currently 1)
//   offset 3  : frame type               (1 byte, FrameType)
//   offset 4  : payload length           (uint32 LE)
//   offset 8  : payload                  (payload-length bytes)
//   offset 8+n: CRC32C of bytes [0, 8+n) (uint32 LE)
//
// All integers are little-endian and fixed-width; the layout is pinned by
// the golden byte test in tests/replica/wire_format_test.cc — changing it
// requires a version bump, not a silent re-golden.
//
// Decode is TOTAL: DecodeFrame inspects every byte through a
// bounds-checked reader and returns Status::Corruption for anything that
// is not the exact encoding of a valid frame — short buffers, bad magic,
// unknown versions or types, length/CRC mismatches, truncated or trailing
// payload bytes, out-of-range enum values, element counts that could not
// fit in the payload (so a forged count can never drive an allocation
// beyond the received bytes). No input reaches undefined behavior; the
// fuzz_wire_frames harness feeds it arbitrary bytes to keep that promise.

#ifndef LTREE_REPLICA_WIRE_FORMAT_H_
#define LTREE_REPLICA_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/document_store.h"
#include "store/state_vector.h"

namespace ltree {
namespace replica {

/// CRC32C (Castagnoli polynomial, reflected 0x82F63B78). The
/// implementation is chosen once per process from cpuid: the SSE4.2
/// `crc32` instruction, eight bytes per step, on x86-64 hosts that have
/// it; a portable slice-by-8 table everywhere else. Both compute the same
/// function, so the bytes on the wire do not depend on the host.
uint32_t Crc32c(const uint8_t* data, size_t size);

namespace internal {

// Both CRC32C paths, exposed for the differential test and the fuzzer.
// Production code calls Crc32c, which dispatches between them.
uint32_t Crc32cPortable(const uint8_t* data, size_t size);
/// Only valid when Crc32cHardwareAvailable().
uint32_t Crc32cHardware(const uint8_t* data, size_t size);
bool Crc32cHardwareAvailable();

}  // namespace internal

inline constexpr uint8_t kWireMagic0 = 'L';
inline constexpr uint8_t kWireMagic1 = 'R';
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 8;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Hard payload bound: a decoded length above this is Corruption before
/// any allocation happens.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 26;  // 64 MiB

enum class FrameType : uint8_t {
  kCatchUpRequest = 1,  ///< shard, from_seq
  kDelta = 2,           ///< shard, (from_seq, to_seq] event suffix
  kSnapshot = 3,        ///< shard, to_seq, full live (label, cookie) state
  kRegister = 4,        ///< subscriber id + full StateVector
  kError = 5,           ///< Status carried across the boundary
  kAck = 6,             ///< empty success response (to kRegister)
};

const char* FrameTypeName(FrameType type);

/// One decoded frame. `type` selects which fields are meaningful; decoded
/// frames always have every unrelated field empty/zero.
struct Frame {
  FrameType type = FrameType::kAck;

  uint32_t shard = 0;         ///< kCatchUpRequest / kDelta / kSnapshot
  /// Request id chosen by the client and echoed verbatim in the kDelta /
  /// kSnapshot response, so a client can tell THE answer to the request it
  /// just sent from a duplicated or reordered delivery of an older one —
  /// even when both requests were byte-identical (same shard and
  /// position). Error frames carry no nonce: the server may not have been
  /// able to decode the request that provoked them.
  uint64_t nonce = 0;         ///< kCatchUpRequest / kDelta / kSnapshot
  uint64_t from_seq = 0;      ///< kCatchUpRequest / kDelta
  uint64_t to_seq = 0;        ///< kDelta / kSnapshot
  uint64_t subscriber = 0;    ///< kRegister
  std::vector<store::FeedEvent> events;                  ///< kDelta
  std::vector<std::pair<Label, LeafCookie>> state;       ///< kSnapshot
  std::vector<uint64_t> seqs;                            ///< kRegister
  StatusCode error_code = StatusCode::kOk;               ///< kError
  std::string error_message;                             ///< kError
};

// ------------------------------------------------------------- builders

Frame MakeCatchUpRequestFrame(uint32_t shard, uint64_t from_seq,
                              uint64_t nonce = 0);

/// A store::CatchUpResult crosses the wire as either a kDelta or a
/// kSnapshot frame, depending on which path the primary chose. `nonce`
/// echoes the provoking request's nonce. Pass an rvalue to move the
/// event or snapshot vector into the frame instead of copying it.
Frame MakeCatchUpResponseFrame(uint32_t shard, store::CatchUpResult result,
                               uint64_t nonce = 0);

Frame MakeRegisterFrame(uint64_t subscriber, const store::StateVector& sv);

/// Requires a non-OK status (an OK "error" has no frame encoding).
Frame MakeErrorFrame(const Status& status);

Frame MakeAckFrame();

// ----------------------------------------------------- frame <-> bytes

/// Exact length of EncodeFrame(frame), computed without encoding.
size_t EncodedFrameSize(const Frame& frame);

/// Requires a payload of at most kMaxPayloadBytes (see EncodeResponse).
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// EncodeFrame for a server's answer whose size the server does not
/// control. A payload above kMaxPayloadBytes (a snapshot of a shard with
/// more than ~4.19M live items) would be refused by every decoder as
/// Corruption, which the peer cannot tell from line noise; it is replaced
/// by an OutOfRange error frame, which the peer treats as a protocol
/// violation.
std::vector<uint8_t> EncodeResponse(const Frame& frame);

/// Decodes exactly one frame occupying the whole buffer. Total: any input
/// that is not a valid encoding yields Status::Corruption, never UB.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);
Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes);

// ------------------------------------------------------- frame -> model

/// Reassembles the store-level catch-up result from a kDelta or kSnapshot
/// frame (InvalidArgument for other types). Pass an rvalue to move the
/// event or snapshot vector out of the frame instead of copying it.
Result<store::CatchUpResult> ToCatchUpResult(Frame frame);

/// The Status a kError frame carries (InvalidArgument for other types).
Status ErrorFrameStatus(const Frame& frame);

}  // namespace replica
}  // namespace ltree

#endif  // LTREE_REPLICA_WIRE_FORMAT_H_
