#include "replica/wire_format.h"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "common/macros.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define LTREE_CRC_X86 1
#else
#define LTREE_CRC_X86 0
#endif

namespace ltree {
namespace replica {

namespace {

// Fixed-width little-endian stores and loads. On little-endian hosts the
// memcpy compiles to one unaligned move; elsewhere the shift loop spells
// out the byte order.
template <typename T>
void StoreLe(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
T LoadLe(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

// Slice-by-8 tables, generated once at first use from the reflected
// Castagnoli polynomial: t[0] is the classic byte table, t[k][b] is the
// CRC of byte b followed by k zero bytes.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32cTables& Crc32cTable() {
  static const Crc32cTables tables = [] {
    Crc32cTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

using Crc32cFn = uint32_t (*)(const uint8_t*, size_t);

Crc32cFn ResolveCrc32c() {
  return internal::Crc32cHardwareAvailable() ? internal::Crc32cHardware
                                             : internal::Crc32cPortable;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const uint8_t* data, size_t size) {
  const Crc32cTables& t = Crc32cTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe<uint32_t>(data);
    const uint32_t hi = LoadLe<uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

#if LTREE_CRC_X86

bool Crc32cHardwareAvailable() {
  return __builtin_cpu_supports("sse4.2") != 0;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const uint8_t* data,
                                                          size_t size) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    crc = _mm_crc32_u64(crc, LoadLe<uint64_t>(data));
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++data, --size) crc32 = _mm_crc32_u8(crc32, *data);
  return crc32 ^ 0xFFFFFFFFu;
}

#else  // !LTREE_CRC_X86

bool Crc32cHardwareAvailable() { return false; }

// Never dispatched to off x86-64; defined so callers link everywhere.
uint32_t Crc32cHardware(const uint8_t* data, size_t size) {
  return Crc32cPortable(data, size);
}

#endif  // LTREE_CRC_X86

}  // namespace internal

uint32_t Crc32c(const uint8_t* data, size_t size) {
  static const Crc32cFn crc32c = ResolveCrc32c();
  return crc32c(data, size);
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kCatchUpRequest:
      return "catchup-request";
    case FrameType::kDelta:
      return "delta";
    case FrameType::kSnapshot:
      return "snapshot";
    case FrameType::kRegister:
      return "register";
    case FrameType::kError:
      return "error";
    case FrameType::kAck:
      return "ack";
  }
  return "unknown";
}

namespace {

// ----------------------------------------------------------- byte writer

/// Cursor over a buffer sized exactly by PayloadSize(), so no store needs
/// a bounds check; EncodeFrame checks that the cursor ends where the
/// size said it would.
class ByteWriter {
 public:
  explicit ByteWriter(uint8_t* out) : pos_(out) {}

  uint8_t* pos() const { return pos_; }

  void PutU8(uint8_t v) { *pos_++ = v; }

  void PutU32(uint32_t v) {
    StoreLe(pos_, v);
    pos_ += 4;
  }

  void PutU64(uint64_t v) {
    StoreLe(pos_, v);
    pos_ += 8;
  }

  void PutBytes(const std::string& bytes) {
    if (!bytes.empty()) std::memcpy(pos_, bytes.data(), bytes.size());
    pos_ += bytes.size();
  }

 private:
  uint8_t* pos_;
};

// ----------------------------------------------------------- byte reader

/// Bounds-checked cursor over the payload. Every Read* returns false on
/// overrun instead of touching out-of-range bytes — the decoder turns any
/// false into Corruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadLe<uint32_t>(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadLe<uint64_t>(data_ + pos_);
    pos_ += 8;
    return true;
  }

  bool ReadBytes(std::string* out, size_t n) {
    if (remaining() < n) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::Corruption("wire frame: " + what);
}

// Fixed payload prefixes, before any repeated elements.
// kCatchUpRequest: shard u32, nonce u64, from_seq u64.
constexpr size_t kCatchUpRequestBytes = 4 + 8 + 8;
// kDelta: shard u32, nonce u64, from_seq u64, to_seq u64, count u32.
constexpr size_t kDeltaHeaderBytes = 4 + 8 + 8 + 8 + 4;
// kSnapshot: shard u32, nonce u64, to_seq u64, count u32.
constexpr size_t kSnapshotHeaderBytes = 4 + 8 + 8 + 4;
// kRegister: subscriber u64, count u32.
constexpr size_t kRegisterHeaderBytes = 8 + 4;
// kError: code u32, message length u32.
constexpr size_t kErrorHeaderBytes = 4 + 4;
// Per-event wire size for kDelta: seq u64, kind u8, cookie u64, old u64,
// new u64.
constexpr size_t kEventBytes = 8 + 1 + 8 + 8 + 8;
// Per-entry wire size for kSnapshot: label u64, cookie u64.
constexpr size_t kSnapshotEntryBytes = 8 + 8;

size_t PayloadSize(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kCatchUpRequest:
      return kCatchUpRequestBytes;
    case FrameType::kDelta:
      return kDeltaHeaderBytes + frame.events.size() * kEventBytes;
    case FrameType::kSnapshot:
      return kSnapshotHeaderBytes + frame.state.size() * kSnapshotEntryBytes;
    case FrameType::kRegister:
      return kRegisterHeaderBytes + frame.seqs.size() * 8;
    case FrameType::kError:
      return kErrorHeaderBytes + frame.error_message.size();
    case FrameType::kAck:
      return 0;
  }
  LTREE_CHECK(false);  // unreachable: builders only produce valid types
  return 0;
}

void EncodePayload(const Frame& frame, ByteWriter* out) {
  switch (frame.type) {
    case FrameType::kCatchUpRequest:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.from_seq);
      return;
    case FrameType::kDelta:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.from_seq);
      out->PutU64(frame.to_seq);
      out->PutU32(static_cast<uint32_t>(frame.events.size()));
      for (const store::FeedEvent& event : frame.events) {
        out->PutU64(event.seq);
        out->PutU8(static_cast<uint8_t>(event.kind));
        out->PutU64(event.cookie);
        out->PutU64(event.old_label);
        out->PutU64(event.new_label);
      }
      return;
    case FrameType::kSnapshot:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.to_seq);
      out->PutU32(static_cast<uint32_t>(frame.state.size()));
      for (const auto& [label, cookie] : frame.state) {
        out->PutU64(label);
        out->PutU64(cookie);
      }
      return;
    case FrameType::kRegister:
      out->PutU64(frame.subscriber);
      out->PutU32(static_cast<uint32_t>(frame.seqs.size()));
      for (const uint64_t seq : frame.seqs) out->PutU64(seq);
      return;
    case FrameType::kError:
      out->PutU32(static_cast<uint32_t>(frame.error_code));
      out->PutU32(static_cast<uint32_t>(frame.error_message.size()));
      out->PutBytes(frame.error_message);
      return;
    case FrameType::kAck:
      return;
  }
  LTREE_CHECK(false);  // unreachable: builders only produce valid types
}

Status DecodePayload(FrameType type, ByteReader* in, Frame* out) {
  switch (type) {
    case FrameType::kCatchUpRequest: {
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->from_seq)) {
        return Corrupt("truncated catchup-request payload");
      }
      return Status::OK();
    }
    case FrameType::kDelta: {
      uint32_t count = 0;
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->from_seq) || !in->ReadU64(&out->to_seq) ||
          !in->ReadU32(&count)) {
        return Corrupt("truncated delta header");
      }
      // A forged count must not drive the reserve past the bytes that
      // actually arrived.
      if (count > in->remaining() / kEventBytes) {
        return Corrupt("delta event count exceeds payload");
      }
      out->events.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        store::FeedEvent event;
        uint8_t kind = 0;
        if (!in->ReadU64(&event.seq) || !in->ReadU8(&kind) ||
            !in->ReadU64(&event.cookie) || !in->ReadU64(&event.old_label) ||
            !in->ReadU64(&event.new_label)) {
          return Corrupt("truncated delta event");
        }
        if (kind > static_cast<uint8_t>(store::FeedEvent::Kind::kErase)) {
          return Corrupt("unknown feed event kind " + std::to_string(kind));
        }
        event.kind = static_cast<store::FeedEvent::Kind>(kind);
        out->events.push_back(event);
      }
      return Status::OK();
    }
    case FrameType::kSnapshot: {
      uint32_t count = 0;
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->to_seq) || !in->ReadU32(&count)) {
        return Corrupt("truncated snapshot header");
      }
      if (count > in->remaining() / kSnapshotEntryBytes) {
        return Corrupt("snapshot entry count exceeds payload");
      }
      out->state.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t label = 0;
        uint64_t cookie = 0;
        if (!in->ReadU64(&label) || !in->ReadU64(&cookie)) {
          return Corrupt("truncated snapshot entry");
        }
        out->state.emplace_back(label, cookie);
      }
      return Status::OK();
    }
    case FrameType::kRegister: {
      uint32_t count = 0;
      if (!in->ReadU64(&out->subscriber) || !in->ReadU32(&count)) {
        return Corrupt("truncated register header");
      }
      if (count > in->remaining() / 8) {
        return Corrupt("register shard count exceeds payload");
      }
      out->seqs.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t seq = 0;
        if (!in->ReadU64(&seq)) return Corrupt("truncated register seq");
        out->seqs.push_back(seq);
      }
      return Status::OK();
    }
    case FrameType::kError: {
      uint32_t code = 0;
      uint32_t msg_len = 0;
      if (!in->ReadU32(&code) || !in->ReadU32(&msg_len)) {
        return Corrupt("truncated error header");
      }
      if (code == static_cast<uint32_t>(StatusCode::kOk) ||
          code > static_cast<uint32_t>(StatusCode::kTimedOut)) {
        return Corrupt("invalid error status code " + std::to_string(code));
      }
      if (!in->ReadBytes(&out->error_message, msg_len)) {
        return Corrupt("truncated error message");
      }
      out->error_code = static_cast<StatusCode>(code);
      return Status::OK();
    }
    case FrameType::kAck:
      return Status::OK();
  }
  return Corrupt("unknown frame type");
}

}  // namespace

// --------------------------------------------------------------- builders

Frame MakeCatchUpRequestFrame(uint32_t shard, uint64_t from_seq,
                              uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kCatchUpRequest;
  frame.shard = shard;
  frame.nonce = nonce;
  frame.from_seq = from_seq;
  return frame;
}

Frame MakeCatchUpResponseFrame(uint32_t shard, store::CatchUpResult result,
                               uint64_t nonce) {
  Frame frame;
  frame.shard = shard;
  frame.nonce = nonce;
  frame.to_seq = result.to_seq;
  if (result.snapshot) {
    frame.type = FrameType::kSnapshot;
    frame.state = std::move(result.state);
  } else {
    frame.type = FrameType::kDelta;
    frame.from_seq = result.from_seq;
    frame.events = std::move(result.events);
  }
  return frame;
}

Frame MakeRegisterFrame(uint64_t subscriber, const store::StateVector& sv) {
  Frame frame;
  frame.type = FrameType::kRegister;
  frame.subscriber = subscriber;
  frame.seqs.reserve(sv.num_shards());
  for (uint32_t i = 0; i < sv.num_shards(); ++i) {
    frame.seqs.push_back(sv.seq(i));
  }
  return frame;
}

Frame MakeErrorFrame(const Status& status) {
  LTREE_CHECK(!status.ok());
  Frame frame;
  frame.type = FrameType::kError;
  frame.error_code = status.code();
  frame.error_message = status.message();
  return frame;
}

Frame MakeAckFrame() { return Frame{}; }

// --------------------------------------------------------- frame <-> bytes

size_t EncodedFrameSize(const Frame& frame) {
  return kFrameHeaderBytes + PayloadSize(frame) + kFrameTrailerBytes;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  const size_t payload_len = PayloadSize(frame);
  // Every decoder refuses a longer payload (and its counts could overflow
  // their u32 fields); EncodeResponse turns such a frame into an error.
  LTREE_CHECK(payload_len <= kMaxPayloadBytes);
  const size_t checked = kFrameHeaderBytes + payload_len;
  std::vector<uint8_t> out(checked + kFrameTrailerBytes);
  ByteWriter writer(out.data());
  writer.PutU8(kWireMagic0);
  writer.PutU8(kWireMagic1);
  writer.PutU8(kWireVersion);
  writer.PutU8(static_cast<uint8_t>(frame.type));
  writer.PutU32(static_cast<uint32_t>(payload_len));
  EncodePayload(frame, &writer);
  LTREE_DCHECK(writer.pos() == out.data() + checked);
  writer.PutU32(Crc32c(out.data(), checked));
  return out;
}

std::vector<uint8_t> EncodeResponse(const Frame& frame) {
  const size_t size = EncodedFrameSize(frame);
  const size_t limit =
      kFrameHeaderBytes + kMaxPayloadBytes + kFrameTrailerBytes;
  if (size > limit) {
    return EncodeFrame(MakeErrorFrame(Status::OutOfRange(
        std::string(FrameTypeName(frame.type)) + " frame of " +
        std::to_string(size) + " bytes exceeds the " + std::to_string(limit) +
        "-byte frame limit")));
  }
  return EncodeFrame(frame);
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Corrupt("buffer shorter than minimal frame");
  }
  if (data[0] != kWireMagic0 || data[1] != kWireMagic1) {
    return Corrupt("bad magic");
  }
  if (data[2] != kWireVersion) {
    return Corrupt("unsupported protocol version " + std::to_string(data[2]));
  }
  const uint8_t raw_type = data[3];
  if (raw_type < static_cast<uint8_t>(FrameType::kCatchUpRequest) ||
      raw_type > static_cast<uint8_t>(FrameType::kAck)) {
    return Corrupt("unknown frame type " + std::to_string(raw_type));
  }
  const uint32_t payload_len = LoadLe<uint32_t>(data + 4);
  if (payload_len > kMaxPayloadBytes) {
    return Corrupt("payload length " + std::to_string(payload_len) +
                   " exceeds limit");
  }
  if (size != kFrameHeaderBytes + payload_len + kFrameTrailerBytes) {
    return Corrupt("length prefix disagrees with buffer size");
  }
  const size_t checked = kFrameHeaderBytes + payload_len;
  if (Crc32c(data, checked) != LoadLe<uint32_t>(data + checked)) {
    return Corrupt("CRC32C mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  ByteReader reader(data + kFrameHeaderBytes, payload_len);
  LTREE_RETURN_IF_ERROR(DecodePayload(frame.type, &reader, &frame));
  if (!reader.exhausted()) {
    return Corrupt("trailing bytes after payload");
  }
  return frame;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes) {
  return DecodeFrame(bytes.data(), bytes.size());
}

// --------------------------------------------------------- frame -> model

Result<store::CatchUpResult> ToCatchUpResult(Frame frame) {
  store::CatchUpResult out;
  switch (frame.type) {
    case FrameType::kDelta:
      out.snapshot = false;
      out.from_seq = frame.from_seq;
      out.to_seq = frame.to_seq;
      out.events = std::move(frame.events);
      return out;
    case FrameType::kSnapshot:
      out.snapshot = true;
      out.from_seq = 0;
      out.to_seq = frame.to_seq;
      out.state = std::move(frame.state);
      return out;
    default:
      return Status::InvalidArgument(
          std::string("frame type ") + FrameTypeName(frame.type) +
          " carries no catch-up result");
  }
}

Status ErrorFrameStatus(const Frame& frame) {
  if (frame.type != FrameType::kError) {
    return Status::InvalidArgument(std::string("frame type ") +
                                   FrameTypeName(frame.type) +
                                   " carries no error status");
  }
  return Status(frame.error_code, frame.error_message);
}

}  // namespace replica
}  // namespace ltree
