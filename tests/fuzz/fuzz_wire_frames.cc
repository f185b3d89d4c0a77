// Wire-frame fuzzer: DecodeFrame must be TOTAL.
//
// The replication protocol's whole corruption story rests on one promise:
// any byte string that is not the exact encoding of a valid frame decodes
// to Status::Corruption — never to a frame, never to UB, never to an
// allocation driven by forged counts. This harness feeds DecodeFrame
// arbitrary bytes and cross-checks the round-trip property both ways:
//
//   * decode(bytes) ok  =>  encode(decode(bytes)) == bytes (canonical
//     encoding: a valid frame has exactly one byte representation);
//   * any accepted frame re-decodes to an identical frame (idempotence);
//   * a single flipped bit in accepted bytes must be rejected;
//   * on every input, the portable CRC32C equals the dispatched Crc32c
//     (the SSE4.2 path on x86-64 hosts that have it), so both paths meet
//     arbitrary lengths and alignments.
//
// Run under ASan/UBSan (LTREE_SANITIZE) this is the memory-safety proof
// for the decoder; the checked-in corpus seeds valid frames of every type
// so coverage starts inside the payload parsers rather than dying at the
// CRC gate.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "replica/wire_format.h"

#include "fuzz_driver.h"

namespace {

using ltree::Result;
using ltree::replica::DecodeFrame;
using ltree::replica::EncodeFrame;
using ltree::replica::Frame;

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "wire-frame fuzz violation: %s\n", what);
  std::abort();
}

bool FramesEqual(const Frame& a, const Frame& b) {
  if (a.type != b.type || a.shard != b.shard || a.nonce != b.nonce ||
      a.from_seq != b.from_seq || a.to_seq != b.to_seq ||
      a.subscriber != b.subscriber || a.seqs != b.seqs ||
      a.state != b.state || a.error_code != b.error_code ||
      a.error_message != b.error_message ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].seq != b.events[i].seq ||
        a.events[i].kind != b.events[i].kind ||
        a.events[i].cookie != b.events[i].cookie ||
        a.events[i].old_label != b.events[i].old_label ||
        a.events[i].new_label != b.events[i].new_label) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (ltree::replica::internal::Crc32cPortable(data, size) !=
      ltree::replica::Crc32c(data, size)) {
    Die("portable and dispatched CRC32C disagree");
  }

  const Result<Frame> decoded = DecodeFrame(data, size);
  if (!decoded.ok()) {
    // Rejection must be the decoder's one failure mode.
    if (!decoded.status().IsCorruption()) Die("rejection is not Corruption");
    return 0;
  }

  // Accepted input: the encoding is canonical, so re-encoding must
  // reproduce the input bytes exactly...
  const std::vector<uint8_t> reencoded = EncodeFrame(*decoded);
  if (reencoded.size() != size) Die("re-encode changed the length");
  for (size_t i = 0; i < size; ++i) {
    if (reencoded[i] != data[i]) Die("re-encode changed the bytes");
  }
  // ...and re-decoding must reproduce the frame (idempotence).
  const Result<Frame> redecoded = DecodeFrame(reencoded);
  if (!redecoded.ok()) Die("canonical bytes failed to decode");
  if (!FramesEqual(*decoded, *redecoded)) Die("re-decode changed the frame");

  // Every single-bit corruption of accepted bytes must be caught. Probing
  // all positions is quadratic in input size; one deterministic
  // input-dependent position per run keeps the harness fast while the
  // corpus sweeps the space.
  if (size > 0) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
    const size_t bit = static_cast<size_t>(h % (size * 8));
    std::vector<uint8_t> damaged(data, data + size);
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    if (DecodeFrame(damaged).ok()) Die("single bit flip was accepted");
  }
  return 0;
}
