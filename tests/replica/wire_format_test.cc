// Wire protocol tests: golden byte layout (pinned against an independent
// CRC32C implementation), encode/decode round trips for every frame type
// across all six labeling schemes, and total-decode guarantees — every
// malformed input comes back as Status::Corruption, never as a frame and
// never as undefined behavior. Also: both CRC32C paths against a bitwise
// reference, the encoder against a byte-at-a-time oracle, and the
// payload limit on responses.

#include "replica/wire_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/document_store.h"
#include "store/mirror_store.h"
#include "store/state_vector.h"

namespace ltree {
namespace replica {
namespace {

constexpr const char* kSpecs[] = {"ltree:16:4", "ltree:16:4:purge",
                                  "virtual:16:4", "gap:64", "sequential",
                                  "bender"};

// ---------------------------------------------------------------------------
// Golden bytes: the layout is pinned. If one of these fails, the wire
// format changed — that requires a version bump, not a re-golden.
// ---------------------------------------------------------------------------

TEST(WireFormatGoldenTest, CatchUpRequestLayout) {
  const std::vector<uint8_t> bytes = EncodeFrame(MakeCatchUpRequestFrame(
      3, 0x1122334455667788ull, /*nonce=*/0x0F0E0D0C0B0A0908ull));
  // magic 'L' 'R', version 1, type 1, payload_len 20 LE, shard u32 LE,
  // nonce u64 LE, from_seq u64 LE, CRC32C LE (computed independently with
  // a bitwise Python implementation validated against the standard
  // "123456789" -> 0xE3069283 vector).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x01,              // magic, version, type
      0x14, 0x00, 0x00, 0x00,              // payload length = 20
      0x03, 0x00, 0x00, 0x00,              // shard = 3
      0x08, 0x09, 0x0A, 0x0B,              // nonce low half
      0x0C, 0x0D, 0x0E, 0x0F,              // nonce high half
      0x88, 0x77, 0x66, 0x55,              // from_seq low half
      0x44, 0x33, 0x22, 0x11,              // from_seq high half
      0x4C, 0x91, 0xAB, 0x58,              // CRC32C(frame[0..28))
  };
  EXPECT_EQ(bytes, expected);
}

TEST(WireFormatGoldenTest, AckLayout) {
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x06,              // magic, version, type = ack
      0x00, 0x00, 0x00, 0x00,              // empty payload
      0xB2, 0x51, 0xB3, 0xBC,              // CRC32C(frame[0..8))
  };
  EXPECT_EQ(EncodeFrame(MakeAckFrame()), expected);
}

TEST(WireFormatGoldenTest, Crc32cStandardVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check), 9), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WireFormatRoundTripTest, CatchUpRequest) {
  const Frame in = MakeCatchUpRequestFrame(7, 42, /*nonce=*/0xDEADBEEF);
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kCatchUpRequest);
  EXPECT_EQ(out->shard, 7u);
  EXPECT_EQ(out->from_seq, 42u);
  EXPECT_EQ(out->nonce, 0xDEADBEEFu);
}

TEST(WireFormatRoundTripTest, DeltaWithEvents) {
  Frame in;
  in.type = FrameType::kDelta;
  in.shard = 2;
  in.nonce = 777;
  in.from_seq = 10;
  in.to_seq = 13;
  for (uint64_t seq = 11; seq <= 13; ++seq) {
    store::FeedEvent event;
    event.seq = seq;
    event.kind = static_cast<store::FeedEvent::Kind>(seq % 3);
    event.cookie = seq * 1000;
    event.old_label = seq * 7;
    event.new_label = seq * 9;
    in.events.push_back(event);
  }
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kDelta);
  EXPECT_EQ(out->shard, 2u);
  EXPECT_EQ(out->nonce, 777u);
  EXPECT_EQ(out->from_seq, 10u);
  EXPECT_EQ(out->to_seq, 13u);
  ASSERT_EQ(out->events.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out->events[i].seq, in.events[i].seq);
    EXPECT_EQ(out->events[i].kind, in.events[i].kind);
    EXPECT_EQ(out->events[i].cookie, in.events[i].cookie);
    EXPECT_EQ(out->events[i].old_label, in.events[i].old_label);
    EXPECT_EQ(out->events[i].new_label, in.events[i].new_label);
  }
}

TEST(WireFormatRoundTripTest, SnapshotEntries) {
  Frame in;
  in.type = FrameType::kSnapshot;
  in.shard = 5;
  in.to_seq = 99;
  in.state = {{100, 1}, {200, 2}, {300, 3}};
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kSnapshot);
  EXPECT_EQ(out->shard, 5u);
  EXPECT_EQ(out->to_seq, 99u);
  EXPECT_EQ(out->state, in.state);
}

TEST(WireFormatRoundTripTest, RegisterCarriesStateVector) {
  store::StateVector sv(4);
  sv.Set(0, 17);
  sv.Set(2, 5);
  const Result<Frame> out =
      DecodeFrame(EncodeFrame(MakeRegisterFrame(0xABCDEF, sv)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kRegister);
  EXPECT_EQ(out->subscriber, 0xABCDEFu);
  EXPECT_EQ(out->seqs, (std::vector<uint64_t>{17, 0, 5, 0}));
}

TEST(WireFormatRoundTripTest, ErrorCarriesStatus) {
  const Status original = Status::NotFound("document 7 does not exist");
  const Result<Frame> out = DecodeFrame(EncodeFrame(MakeErrorFrame(original)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->type, FrameType::kError);
  const Status restored = ErrorFrameStatus(*out);
  EXPECT_EQ(restored.code(), original.code());
  EXPECT_EQ(restored.message(), original.message());
}

TEST(WireFormatRoundTripTest, EmptyDeltaAndEmptySnapshot) {
  Frame delta;
  delta.type = FrameType::kDelta;
  delta.shard = 0;
  delta.from_seq = 4;
  delta.to_seq = 4;
  Result<Frame> out = DecodeFrame(EncodeFrame(delta));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->events.empty());

  Frame snap;
  snap.type = FrameType::kSnapshot;
  snap.shard = 1;
  snap.to_seq = 0;
  out = DecodeFrame(EncodeFrame(snap));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->state.empty());
}

// Real catch-up payloads from every labeling scheme survive the wire: the
// decoded CatchUpResult drives a mirror to equivalence, through both the
// delta and the (forced-trim) snapshot path.
TEST(WireFormatRoundTripTest, CatchUpResultsAcrossAllSchemes) {
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    for (const bool force_snapshot : {false, true}) {
      SCOPED_TRACE(force_snapshot ? "snapshot" : "delta");
      store::DocStoreOptions options;
      options.num_shards = 4;
      options.scheme_spec = spec;
      options.feed_capacity = force_snapshot ? 8 : 4096;
      auto made = store::DocumentStore::Make(options);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      std::unique_ptr<store::DocumentStore> primary = std::move(*made);

      Rng rng(42);
      for (store::DocId doc = 0; doc < 6; ++doc) {
        ASSERT_TRUE(primary->CreateDocument(doc).ok());
        for (int i = 0; i < 30; ++i) {
          ASSERT_TRUE(primary->Append(doc).ok());
        }
        for (int i = 0; i < 10; ++i) {
          const uint64_t size = primary->DocSize(doc).ValueOrDie();
          ASSERT_TRUE(primary->EraseAt(doc, rng.Uniform(size)).ok());
        }
      }

      store::MirrorStore mirror(primary->num_shards());
      uint32_t snapshots = 0;
      for (uint32_t shard = 0; shard < primary->num_shards(); ++shard) {
        const auto result = primary->CatchUp(shard, 0);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        snapshots += result->snapshot ? 1 : 0;
        // Model -> frame -> bytes -> frame -> model.
        const std::vector<uint8_t> bytes =
            EncodeFrame(MakeCatchUpResponseFrame(shard, *result));
        const Result<Frame> frame = DecodeFrame(bytes);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        const auto restored = ToCatchUpResult(*frame);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        EXPECT_EQ(restored->snapshot, result->snapshot);
        EXPECT_EQ(restored->to_seq, result->to_seq);
        ASSERT_TRUE(mirror.ApplyCatchUp(shard, *restored).ok());
      }
      const Status eq = mirror.CheckEquivalent(*primary);
      EXPECT_TRUE(eq.ok()) << eq.ToString();
      // A tiny feed forces the snapshot path on every shard that saw
      // writes (an unlucky-hash empty shard legitimately serves a delta).
      if (force_snapshot) {
        EXPECT_GT(snapshots, 0u);
      } else {
        EXPECT_EQ(snapshots, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Total decode: malformed inputs are Corruption, never frames, never UB.
// ---------------------------------------------------------------------------

std::vector<uint8_t> ValidDeltaBytes() {
  Frame frame;
  frame.type = FrameType::kDelta;
  frame.shard = 1;
  frame.from_seq = 0;
  frame.to_seq = 2;
  store::FeedEvent event;
  event.seq = 1;
  event.kind = store::FeedEvent::Kind::kInsert;
  event.cookie = 11;
  event.new_label = 64;
  frame.events.push_back(event);
  event.seq = 2;
  event.cookie = 12;
  event.new_label = 128;
  frame.events.push_back(event);
  return EncodeFrame(frame);
}

TEST(WireFormatCorruptionTest, EveryPossibleSingleBitFlipIsRejected) {
  const std::vector<uint8_t> good = ValidDeltaBytes();
  ASSERT_TRUE(DecodeFrame(good).ok());
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const Result<Frame> out = DecodeFrame(bad);
    ASSERT_FALSE(out.ok()) << "bit " << bit << " flip was accepted";
    EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
  }
}

TEST(WireFormatCorruptionTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> good = ValidDeltaBytes();
  for (size_t len = 0; len < good.size(); ++len) {
    const Result<Frame> out = DecodeFrame(good.data(), len);
    ASSERT_FALSE(out.ok()) << "truncation to " << len << " was accepted";
    EXPECT_TRUE(out.status().IsCorruption());
  }
}

TEST(WireFormatCorruptionTest, TrailingBytesAreRejected) {
  std::vector<uint8_t> bytes = ValidDeltaBytes();
  bytes.push_back(0x00);
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
}

TEST(WireFormatCorruptionTest, BadMagicVersionAndType) {
  std::vector<uint8_t> bytes = EncodeFrame(MakeAckFrame());
  bytes[0] = 'X';
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());

  bytes = EncodeFrame(MakeAckFrame());
  bytes[2] = 2;  // future protocol version
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());

  for (const uint8_t type : {uint8_t{0}, uint8_t{7}, uint8_t{255}}) {
    bytes = EncodeFrame(MakeAckFrame());
    bytes[3] = type;
    EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
  }
}

TEST(WireFormatCorruptionTest, ForgedCountsCannotDriveAllocation) {
  // A delta frame whose event count claims more events than the payload
  // holds must fail BEFORE any reserve happens (valid CRC, hostile count).
  std::vector<uint8_t> payload;
  auto put_u32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto put_u64 = [&payload](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(0);           // shard
  put_u64(0);           // nonce
  put_u64(0);           // from_seq
  put_u64(1);           // to_seq
  put_u32(0xFFFFFFFF);  // forged event count; zero event bytes follow

  std::vector<uint8_t> bytes = {kWireMagic0, kWireMagic1, kWireVersion,
                                static_cast<uint8_t>(FrameType::kDelta)};
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  const Result<Frame> out = DecodeFrame(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption());
  EXPECT_NE(out.status().message().find("count"), std::string::npos);
}

TEST(WireFormatCorruptionTest, ErrorFrameWithOkCodeIsRejected) {
  // Hand-build an error frame claiming StatusCode::kOk — a frame the
  // encoder can never produce; the decoder must still reject it.
  std::vector<uint8_t> bytes = {kWireMagic0, kWireMagic1, kWireVersion,
                                static_cast<uint8_t>(FrameType::kError),
                                8,           0,           0,
                                0,  // payload len = 8
                                0,           0,           0,
                                0,  // code = kOk
                                0,           0,           0,
                                0};  // message length = 0
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
}

TEST(WireFormatCorruptionTest, RandomGarbageNeverDecodes) {
  // Random buffers essentially never carry a valid CRC; the point is that
  // none of them crash and all of them fail cleanly.
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.Uniform(64));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next64());
    const Result<Frame> out = DecodeFrame(bytes);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsCorruption());
    }
  }
}

// ---------------------------------------------------------------------------
// CRC32C: the hardware and portable paths against a bitwise reference.
// ---------------------------------------------------------------------------

// One polynomial step per bit, no tables: independent of both paths.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Next64());
  return bytes;
}

using CrcFn = uint32_t (*)(const uint8_t*, size_t);

// Every length 0..300 at every start offset 0..7 (the buffer itself is
// 8-aligned), so each path's word loop and byte tail meet every split.
void ExpectMatchesReferenceAtEveryLengthAndOffset(CrcFn crc) {
  Rng rng(13);
  const std::vector<uint8_t> buf = RandomBytes(&rng, 300 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc(p, len), ReferenceCrc32c(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

// 64 KB buffers of random, all-zero and all-one bytes.
void ExpectMatchesReferenceOnLargeBuffers(CrcFn crc) {
  Rng rng(17);
  const size_t kSize = 64 * 1024;
  for (const std::vector<uint8_t>& buf :
       {RandomBytes(&rng, kSize), std::vector<uint8_t>(kSize, 0x00),
        std::vector<uint8_t>(kSize, 0xFF)}) {
    EXPECT_EQ(crc(buf.data(), buf.size()),
              ReferenceCrc32c(buf.data(), buf.size()));
  }
}

TEST(Crc32cDifferentialTest, PortableMatchesReference) {
  ExpectMatchesReferenceAtEveryLengthAndOffset(internal::Crc32cPortable);
  ExpectMatchesReferenceOnLargeBuffers(internal::Crc32cPortable);
}

TEST(Crc32cDifferentialTest, HardwareMatchesReference) {
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
  }
  ExpectMatchesReferenceAtEveryLengthAndOffset(internal::Crc32cHardware);
  ExpectMatchesReferenceOnLargeBuffers(internal::Crc32cHardware);
}

// ---------------------------------------------------------------------------
// Byte identity: the encoder against the byte-at-a-time one it replaced.
// ---------------------------------------------------------------------------

namespace oracle {

// The encoder as it was before the word-at-a-time rewrite: one push_back
// per byte into an unreserved vector, shifts for byte order. Only the CRC
// differs: the bitwise reference replaces its byte table.
void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void EncodePayload(const Frame& frame, std::vector<uint8_t>* out) {
  switch (frame.type) {
    case FrameType::kCatchUpRequest:
      PutU32(out, frame.shard);
      PutU64(out, frame.nonce);
      PutU64(out, frame.from_seq);
      return;
    case FrameType::kDelta:
      PutU32(out, frame.shard);
      PutU64(out, frame.nonce);
      PutU64(out, frame.from_seq);
      PutU64(out, frame.to_seq);
      PutU32(out, static_cast<uint32_t>(frame.events.size()));
      for (const store::FeedEvent& event : frame.events) {
        PutU64(out, event.seq);
        PutU8(out, static_cast<uint8_t>(event.kind));
        PutU64(out, event.cookie);
        PutU64(out, event.old_label);
        PutU64(out, event.new_label);
      }
      return;
    case FrameType::kSnapshot:
      PutU32(out, frame.shard);
      PutU64(out, frame.nonce);
      PutU64(out, frame.to_seq);
      PutU32(out, static_cast<uint32_t>(frame.state.size()));
      for (const auto& [label, cookie] : frame.state) {
        PutU64(out, label);
        PutU64(out, cookie);
      }
      return;
    case FrameType::kRegister:
      PutU64(out, frame.subscriber);
      PutU32(out, static_cast<uint32_t>(frame.seqs.size()));
      for (const uint64_t seq : frame.seqs) PutU64(out, seq);
      return;
    case FrameType::kError:
      PutU32(out, static_cast<uint32_t>(frame.error_code));
      PutU32(out, static_cast<uint32_t>(frame.error_message.size()));
      for (const char c : frame.error_message) {
        PutU8(out, static_cast<uint8_t>(c));
      }
      return;
    case FrameType::kAck:
      return;
  }
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.push_back(kWireMagic0);
  out.push_back(kWireMagic1);
  out.push_back(kWireVersion);
  out.push_back(static_cast<uint8_t>(frame.type));
  PutU32(&out, 0);  // payload length backpatched below
  EncodePayload(frame, &out);
  const uint32_t payload_len =
      static_cast<uint32_t>(out.size() - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
  PutU32(&out, ReferenceCrc32c(out.data(), out.size()));
  return out;
}

}  // namespace oracle

constexpr FrameType kAllFrameTypes[] = {
    FrameType::kCatchUpRequest, FrameType::kDelta, FrameType::kSnapshot,
    FrameType::kRegister,       FrameType::kError, FrameType::kAck};

// A frame of `type` with random values in exactly the fields that type
// carries (decoded frames leave every other field zero), holding
// `elements` events, entries, seqs or message bytes.
Frame RandomFrame(Rng* rng, FrameType type, size_t elements) {
  Frame frame;
  frame.type = type;
  switch (type) {
    case FrameType::kCatchUpRequest:
      frame.shard = static_cast<uint32_t>(rng->Next64());
      frame.nonce = rng->Next64();
      frame.from_seq = rng->Next64();
      break;
    case FrameType::kDelta:
      frame.shard = static_cast<uint32_t>(rng->Next64());
      frame.nonce = rng->Next64();
      frame.from_seq = rng->Next64();
      frame.to_seq = rng->Next64();
      for (size_t i = 0; i < elements; ++i) {
        store::FeedEvent event;
        event.seq = rng->Next64();
        event.kind = static_cast<store::FeedEvent::Kind>(rng->Uniform(3));
        event.cookie = rng->Next64();
        event.old_label = rng->Next64();
        event.new_label = rng->Next64();
        frame.events.push_back(event);
      }
      break;
    case FrameType::kSnapshot:
      frame.shard = static_cast<uint32_t>(rng->Next64());
      frame.nonce = rng->Next64();
      frame.to_seq = rng->Next64();
      for (size_t i = 0; i < elements; ++i) {
        frame.state.emplace_back(rng->Next64(), rng->Next64());
      }
      break;
    case FrameType::kRegister:
      frame.subscriber = rng->Next64();
      for (size_t i = 0; i < elements; ++i) {
        frame.seqs.push_back(rng->Next64());
      }
      break;
    case FrameType::kError:
      frame.error_code = static_cast<StatusCode>(rng->UniformRange(
          static_cast<uint64_t>(StatusCode::kInvalidArgument),
          static_cast<uint64_t>(StatusCode::kTimedOut)));
      for (size_t i = 0; i < elements; ++i) {
        frame.error_message.push_back(static_cast<char>(rng->Next64()));
      }
      break;
    case FrameType::kAck:
      break;
  }
  return frame;
}

void ExpectSameFrame(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.nonce, b.nonce);
  EXPECT_EQ(a.from_seq, b.from_seq);
  EXPECT_EQ(a.to_seq, b.to_seq);
  EXPECT_EQ(a.subscriber, b.subscriber);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.seqs, b.seqs);
  EXPECT_EQ(a.error_code, b.error_code);
  EXPECT_EQ(a.error_message, b.error_message);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].seq, b.events[i].seq);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].cookie, b.events[i].cookie);
    EXPECT_EQ(a.events[i].old_label, b.events[i].old_label);
    EXPECT_EQ(a.events[i].new_label, b.events[i].new_label);
  }
}

// Random frames of every type and a spread of sizes, including a delta
// of 2000 events and a snapshot of 5000 entries.
std::vector<Frame> SampleFrames() {
  Rng rng(2024);
  std::vector<Frame> frames;
  for (const FrameType type : kAllFrameTypes) {
    for (const size_t elements : {0, 1, 7, 64}) {
      frames.push_back(RandomFrame(&rng, type, elements));
    }
    for (int trial = 0; trial < 8; ++trial) {
      frames.push_back(RandomFrame(&rng, type, rng.Uniform(300)));
    }
  }
  frames.push_back(RandomFrame(&rng, FrameType::kDelta, 2000));
  frames.push_back(RandomFrame(&rng, FrameType::kSnapshot, 5000));
  return frames;
}

TEST(WireFormatOracleTest, EncoderMatchesByteAtATimeOracle) {
  for (const Frame& frame : SampleFrames()) {
    SCOPED_TRACE(FrameTypeName(frame.type));
    const std::vector<uint8_t> bytes = EncodeFrame(frame);
    ASSERT_EQ(bytes, oracle::EncodeFrame(frame));
    const Result<Frame> decoded = DecodeFrame(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameFrame(*decoded, frame);
  }
}

TEST(WireFormatSizeTest, EncodedFrameSizeMatchesEncoding) {
  for (const Frame& frame : SampleFrames()) {
    EXPECT_EQ(EncodedFrameSize(frame), EncodeFrame(frame).size())
        << FrameTypeName(frame.type);
  }
}

// ---------------------------------------------------------------------------
// Payload limit: an answer too large to frame is a typed error, not noise.
// ---------------------------------------------------------------------------

TEST(WireFormatLimitTest, ResponseWithinLimitEncodesAsItself) {
  Rng rng(5);
  for (const FrameType type : kAllFrameTypes) {
    const Frame frame = RandomFrame(&rng, type, 100);
    EXPECT_EQ(EncodeResponse(frame), EncodeFrame(frame))
        << FrameTypeName(frame.type);
  }
}

TEST(WireFormatLimitTest, OverLimitSnapshotIsRefusedAsOutOfRange) {
  // Built directly: a store with ~4.19M live items is too slow for a test.
  // A snapshot payload is a 24-byte header plus 16 bytes per entry, so
  // this is the smallest entry count over kMaxPayloadBytes.
  const size_t header = 4 + 8 + 8 + 4;
  const size_t entries = (kMaxPayloadBytes - header) / 16 + 1;
  Frame snapshot;
  snapshot.type = FrameType::kSnapshot;
  snapshot.shard = 3;
  snapshot.nonce = 42;
  snapshot.to_seq = 1000;
  snapshot.state.reserve(entries);
  snapshot.state.resize(entries - 1);
  EXPECT_EQ(EncodedFrameSize(snapshot),
            kFrameHeaderBytes + header + (entries - 1) * 16 +
                kFrameTrailerBytes);
  EXPECT_LE(EncodedFrameSize(snapshot),
            kFrameHeaderBytes + kMaxPayloadBytes + kFrameTrailerBytes);
  snapshot.state.emplace_back(1, 2);
  EXPECT_GT(EncodedFrameSize(snapshot),
            kFrameHeaderBytes + kMaxPayloadBytes + kFrameTrailerBytes);

  const Result<Frame> answer = DecodeFrame(EncodeResponse(snapshot));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->type, FrameType::kError);
  const Status refused = ErrorFrameStatus(*answer);
  EXPECT_TRUE(refused.IsOutOfRange()) << refused.ToString();
  EXPECT_NE(refused.message().find("snapshot"), std::string::npos);
}

}  // namespace
}  // namespace replica
}  // namespace ltree
