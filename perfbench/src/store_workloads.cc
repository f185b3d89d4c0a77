// docstore-mixed and replica-lossy: a sharded DocumentStore under a
// multi-session edit stream, with order reads beside the edits and mirrors
// that follow the store through ReplicationSession.
//
// Both share one round body; they differ in the knobs of StoreShape.
// docstore-mixed keeps every catch-up inside the feed (delta path, clean
// transport); replica-lossy gives the feed a short memory and the mirrors
// a lossy transport, so laggards fall back to snapshots and retries.

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "listlab/factory.h"
#include "replica/clock.h"
#include "replica/replication_session.h"
#include "replica/transport.h"
#include "replica/wire_format.h"
#include "store/document_store.h"
#include "store/mirror_store.h"
#include "workload/update_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ltree::LeafCookie;
using ltree::Status;
using ltree::listlab::ItemHandle;
using ltree::listlab::LabelStore;
using ltree::workload::ListOp;

constexpr char kSpec[] = "ltree:16:4";

struct StoreShape {
  uint32_t shards = 4;
  uint64_t docs = 64;
  uint64_t preload_per_doc = 256;
  double doc_theta = 1.1;
  double erase_fraction = 0.25;
  /// Share of edits that are InsertBatchAfterRank of `batch_size` items.
  double batch_fraction = 0;
  uint64_t batch_size = 20;
  uint64_t feed_capacity = 4096;
  /// One mirror per entry: it syncs after every `n` edits.
  std::vector<uint64_t> sync_every;
  bool lossy = false;
  uint64_t edits = 0;
};

StoreShape DocstoreMixedShape() {
  StoreShape s;
  s.preload_per_doc = 512;
  s.sync_every = {500};
  s.feed_capacity = 65536;
  s.edits = 40000;
  return s;
}

StoreShape ReplicaLossyShape() {
  StoreShape s;
  s.docs = 16;
  s.preload_per_doc = 1024;
  s.erase_fraction = 0.30;
  s.batch_fraction = 0.02;
  s.feed_capacity = 256;
  s.sync_every = {50, 100, 200, 400};
  s.lossy = true;
  s.edits = 8000;
  return s;
}

/// The label-level ops of the store replayed on bare per-shard LabelStores
/// with bench-side handle vectors: what the edits cost in the scheme alone.
/// Placement follows DocumentStore: a document's first item goes to its
/// shard's tail, later ones next to the document's own items.
class SchemeShadow {
 public:
  SchemeShadow(const ltree::store::DocumentStore& store, uint64_t docs) {
    stores_ = ltree::listlab::MakeLabelStores(kSpec, store.num_shards())
                  .ValueOrDie();
    docs_.resize(docs);
    for (uint64_t d = 0; d < docs; ++d) docs_[d].shard = store.ShardOf(d);
  }

  /// Mirrors DocumentStore::Apply / InsertBatchAfterRank; only the scheme
  /// call runs inside the "listlab.apply" span.
  Status Replay(uint64_t doc, const ListOp& op, uint64_t batch, Tracer* tracer,
                uint32_t span) {
    Doc& d = docs_[doc];
    LabelStore& s = *stores_[d.shard];
    const uint64_t size = d.items.size();
    const uint64_t rank = size == 0 ? 0 : std::min(op.rank, size - 1);
    if (op.kind == ListOp::Kind::kErase) {
      {
        Tracer::Scope apply = tracer->Open(span);
        LTREE_RETURN_IF_ERROR(s.Erase(d.items[rank]));
      }
      d.items.erase(d.items.begin() + static_cast<ptrdiff_t>(rank));
      return Status::OK();
    }
    std::vector<LeafCookie> cookies(std::max<uint64_t>(batch, 1));
    for (LeafCookie& c : cookies) c = next_cookie_++;
    std::vector<ItemHandle> handles;
    const bool before = op.kind == ListOp::Kind::kInsertBefore && batch == 0;
    {
      Tracer::Scope apply = tracer->Open(span);
      if (size == 0) {
        LTREE_RETURN_IF_ERROR(s.PushBackBatch(cookies, &handles));
      } else if (batch > 0) {
        LTREE_RETURN_IF_ERROR(
            s.InsertBatchAfter(d.items[rank], cookies, &handles));
      } else {
        auto h = before ? s.InsertBefore(d.items[rank], cookies[0])
                        : s.InsertAfter(d.items[rank], cookies[0]);
        LTREE_RETURN_IF_ERROR(h.status());
        handles.push_back(*h);
      }
    }
    const uint64_t at = size == 0 ? 0 : before ? rank : rank + 1;
    d.items.insert(d.items.begin() + static_cast<ptrdiff_t>(at),
                   handles.begin(), handles.end());
    return Status::OK();
  }

  uint64_t relabels() const {
    uint64_t total = 0;
    for (const auto& s : stores_) total += s->stats().items_relabeled;
    return total;
  }

 private:
  struct Doc {
    uint32_t shard = 0;
    std::vector<ItemHandle> items;
  };
  std::vector<std::unique_ptr<LabelStore>> stores_;
  std::vector<Doc> docs_;
  LeafCookie next_cookie_ = 1;
};

/// One mirror with its session stack: session -> [FaultyTransport] ->
/// TimingTransport -> PrimaryEndpoint.
struct Mirror {
  Mirror(ltree::store::DocumentStore* store, uint64_t id, bool lossy,
         uint64_t seed, Tracer* tracer)
      : mirror(store->num_shards()),
        endpoint(store, store),
        timing(&endpoint, tracer),
        shadow(store->num_shards()) {
    ltree::replica::Transport* wire = &timing;
    if (lossy) {
      faulty = std::make_unique<ltree::replica::FaultyTransport>(
          &timing, &clock,
          ltree::replica::FaultOptions{.seed = seed * 7919 + id,
                                       .drop = 0.01,
                                       .stall = 0.005,
                                       .truncate = 0.005,
                                       .bit_flip = 0.005,
                                       .duplicate = 0.005,
                                       .reorder = 0.005});
      wire = faulty.get();
    }
    session = std::make_unique<ltree::replica::ReplicationSession>(
        &mirror, wire, &clock,
        ltree::replica::SessionOptions{.subscriber_id = id,
                                       .jitter_seed = seed * 31 + id});
  }

  ltree::store::MirrorStore mirror;
  ltree::replica::FakeClock clock;
  ltree::replica::PrimaryEndpoint endpoint;
  TimingTransport timing;
  std::unique_ptr<ltree::replica::FaultyTransport> faulty;
  std::unique_ptr<ltree::replica::ReplicationSession> session;
  /// Traced rounds: follows the store by direct CatchUp/ApplyCatchUp calls
  /// from the same positions, so those two layers can be timed apart from
  /// the transport.
  ltree::store::MirrorStore shadow;
  uint64_t every = 0;
};

struct SpanNames {
  explicit SpanNames(Tracer* t)
      : edit(t->Intern("edit")),
        read(t->Intern("read")),
        sync(t->Intern("sync")),
        shadow(t->Intern("shadow")),
        store_apply(t->Intern("store.apply")),
        label_at(t->Intern("store.label_at")),
        listlab_apply(t->Intern("listlab.apply")),
        catchup(t->Intern("store.catchup")),
        mirror_apply(t->Intern("store.mirror_apply")) {}
  uint32_t edit, read, sync, shadow, store_apply, label_at, listlab_apply,
      catchup, mirror_apply;
};

/// Replays one shard-by-shard catch-up of `m.shadow` against the store,
/// timing the store side and the mirror side separately. Returns the
/// events or snapshot entries applied.
uint64_t ShadowCatchUp(const ltree::store::DocumentStore& store, Mirror& m,
                   const SpanNames& names, const RoundContext& ctx) {
  Tracer::Scope root = ctx.tracer->Open(names.shadow);
  uint64_t applied = 0;
  for (uint32_t shard = 0; shard < store.num_shards(); ++shard) {
    ltree::Result<ltree::store::CatchUpResult> r = [&] {
      Tracer::Scope s = ctx.tracer->Open(names.catchup);
      return store.CatchUp(shard, m.shadow.state_vector().seq(shard));
    }();
    if (!r.ok()) {
      ctx.acc->Fail("shadow CatchUp: " + r.status().ToString());
      return applied;
    }
    applied += r->snapshot ? r->state.size() : r->events.size();
    Status st;
    {
      Tracer::Scope s = ctx.tracer->Open(names.mirror_apply);
      st = m.shadow.ApplyCatchUp(shard, *r);
    }
    if (!st.ok()) ctx.acc->Fail("shadow ApplyCatchUp: " + st.ToString());
  }
  return applied;
}

/// Times DecodeFrame and EncodeFrame over the frames a mirror's timing
/// transport captured during the round. Requests the lossy transport
/// damaged on the way in do not decode and are left out.
void TimeCodec(Mirror& m, Accum* acc) {
  std::vector<std::vector<uint8_t>> frames;
  for (auto& f : m.timing.captured()) {
    if (ltree::replica::DecodeFrame(f).ok()) frames.push_back(std::move(f));
  }
  m.timing.captured().clear();
  std::vector<ltree::replica::Frame> decoded;
  decoded.reserve(frames.size());
  uint64_t bytes = 0;
  const int64_t t0 = NowNs();
  for (const auto& f : frames) {
    decoded.push_back(ltree::replica::DecodeFrame(f).ValueOrDie());
    bytes += f.size();
  }
  const int64_t t1 = NowNs();
  uint64_t encoded = 0;
  for (const auto& frame : decoded) {
    encoded += ltree::replica::EncodeFrame(frame).size();
  }
  const int64_t t2 = NowNs();
  if (encoded != bytes) acc->Fail("frame re-encode changed its size");
  acc->decode_ns += static_cast<double>(t1 - t0);
  acc->encode_ns += static_cast<double>(t2 - t1);
  acc->codec_bytes += bytes;
}

RoundResult RunStoreRound(const StoreShape& shape, const RoundContext& ctx) {
  Accum& acc = *ctx.acc;
  Tracer* tracer = ctx.tracer;
  const SpanNames names(tracer);
  RoundResult times;

  // ---------------------------------------------------------------- setup
  const int64_t setup_start = NowNs();
  auto made = ltree::store::DocumentStore::Make(
      {.num_shards = shape.shards,
       .scheme_spec = kSpec,
       .feed_capacity = shape.feed_capacity});
  if (!made.ok()) {
    acc.Fail("DocumentStore::Make: " + made.status().ToString());
    return times;
  }
  std::unique_ptr<ltree::store::DocumentStore> store = std::move(*made);
  for (uint64_t d = 0; d < shape.docs; ++d) {
    Status st = store->CreateDocument(d);
    if (st.ok()) st = store->InsertBatchAfterRank(d, 0, shape.preload_per_doc);
    if (!st.ok()) {
      acc.Fail("preload: " + st.ToString());
      return times;
    }
  }
  std::vector<std::unique_ptr<Mirror>> mirrors;
  for (size_t i = 0; i < shape.sync_every.size(); ++i) {
    mirrors.push_back(std::make_unique<Mirror>(store.get(), i + 1, shape.lossy,
                                               ctx.seed, tracer));
    mirrors.back()->every = shape.sync_every[i];
    const Status st = mirrors.back()->session->SyncRound();
    if (!st.ok()) {
      acc.Fail("initial sync: " + st.ToString());
      return times;
    }
  }
  const double setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  if (!ctx.traced) acc.setup_s.Add(setup_s);

  std::unique_ptr<SchemeShadow> scheme_shadow;
  if (ctx.traced) {
    scheme_shadow = std::make_unique<SchemeShadow>(*store, shape.docs);
    for (uint64_t d = 0; d < shape.docs; ++d) {
      const Status st = scheme_shadow->Replay(
          d, ListOp{.kind = ListOp::Kind::kInsertAfter, .rank = 0},
          shape.preload_per_doc, tracer, names.listlab_apply);
      if (!st.ok()) acc.Fail("shadow preload: " + st.ToString());
    }
    for (auto& m : mirrors) {
      ShadowCatchUp(*store, *m, names, ctx);
      m->timing.CaptureFrames(64);
    }
    tracer->Clear();
  }

  // ------------------------------------------------------------ the loop
  ltree::workload::MultiSessionStream stream(
      {.num_docs = shape.docs,
       .num_sessions = 4,
       .doc_zipf_theta = shape.doc_theta,
       .session_stream = {.kind = ltree::workload::StreamKind::kMixed,
                          .erase_fraction = shape.erase_fraction,
                          .seed = ctx.seed}});
  ltree::Rng rng(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto size_of = [&](uint64_t doc) {
    return store->DocSize(doc).ValueOrDie();
  };
  const ltree::store::StoreStats before = store->stats();
  std::vector<uint64_t> wire_before;
  std::vector<ltree::replica::SessionStats> session_before;
  for (auto& m : mirrors) {
    wire_before.push_back(m->timing.wire_bytes());
    session_before.push_back(m->session->stats());
  }
  uint64_t reads = 0;

  const int64_t phase_start = NowNs();
  for (uint64_t i = 0; i < shape.edits; ++i) {
    const ltree::workload::DocOp op = stream.Next(size_of);
    const bool batch = shape.batch_fraction > 0 &&
                       op.op.kind != ListOp::Kind::kErase &&
                       rng.Bernoulli(shape.batch_fraction);
    const uint64_t doc_size = size_of(op.doc);
    Status st;
    const int64_t t0 = NowNs();
    {
      Tracer::Scope edit = tracer->Open(names.edit);
      Tracer::Scope apply = tracer->Open(names.store_apply);
      st = batch ? store->InsertBatchAfterRank(
                       op.doc, doc_size == 0 ? 0 : std::min(op.op.rank, doc_size - 1),
                       shape.batch_size)
                 : store->Apply(op.doc, op.op);
    }
    const int64_t t1 = NowNs();
    acc.Call(st.ok());
    if (!ctx.traced) acc.edit_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    if (scheme_shadow != nullptr) {
      Tracer::Scope root = tracer->Open(names.shadow);
      const Status replay = scheme_shadow->Replay(
          op.doc, op.op, batch ? shape.batch_size : 0, tracer,
          names.listlab_apply);
      if (!replay.ok()) acc.Fail("shadow replay: " + replay.ToString());
    }

    // One order read of the edited document: labels of two ranks must
    // compare the way the ranks do.
    const uint64_t n = size_of(op.doc);
    if (n > 0) {
      const uint64_t r1 = rng.Uniform(n);
      const uint64_t r2 = n > 1 ? (r1 + 1 + rng.Uniform(n - 1)) % n : r1;
      ltree::Result<ltree::Label> a = Status::NotFound("unread");
      ltree::Result<ltree::Label> b = a;
      const int64_t r0 = NowNs();
      {
        Tracer::Scope read = tracer->Open(names.read);
        {
          Tracer::Scope s = tracer->Open(names.label_at);
          a = store->LabelAt(op.doc, r1);
        }
        {
          Tracer::Scope s = tracer->Open(names.label_at);
          b = store->LabelAt(op.doc, r2);
        }
      }
      const int64_t r3 = NowNs();
      ++reads;
      acc.Call(a.ok() && b.ok());
      if (!ctx.traced) acc.read_us.Add(static_cast<double>(r3 - r0) * 1e-3);
      if (a.ok() && b.ok() && r1 != r2 && ((r1 < r2) != (*a < *b))) {
        acc.Fail("rank order differs from label order");
      }
    }

    for (auto& m : mirrors) {
      if ((i + 1) % m->every != 0) continue;
      const int64_t s0 = NowNs();
      Status synced;
      {
        Tracer::Scope sync = tracer->Open(names.sync);
        synced = m->session->SyncRound();
      }
      const int64_t s1 = NowNs();
      acc.Call(synced.ok());
      if (!ctx.traced) acc.sync_us.Add(static_cast<double>(s1 - s0) * 1e-3);
      if (ctx.traced) {
        acc.mirror_apply_items += ShadowCatchUp(*store, *m, names, ctx);
      }
    }
  }
  const int64_t phase_end = NowNs();
  int64_t instrument_ns = 0;
  if (ctx.traced) {
    instrument_ns = RootTimeNs(*tracer, names.shadow);
    acc.spans.Fold(*tracer);
  }
  const size_t phase_spans = tracer->spans().size();
  times.phase_s = static_cast<double>(phase_end - phase_start) * 1e-9;
  times.instrument_s = static_cast<double>(instrument_ns) * 1e-9;
  if (!ctx.traced) {
    acc.loop_edits += shape.edits;
    acc.loop_s += times.phase_s;
  }

  // ------------------------------------------------- counts and the gates
  const ltree::store::StoreStats after = store->stats();
  Fingerprint counts;
  counts["edits"] = shape.edits;
  counts["reads"] = reads;
  counts["inserts"] = after.rollup.inserts - before.rollup.inserts;
  counts["relabels"] = after.rollup.items_relabeled - before.rollup.items_relabeled;
  counts["rebalances"] = after.rollup.rebalances - before.rollup.rebalances;
  counts["feed_events"] = after.feed_events - before.feed_events;
  counts["heap_bytes"] = after.heap_bytes;
  counts["live_items"] = after.live_items;
  for (size_t k = 0; k < mirrors.size(); ++k) {
    const Mirror& m = *mirrors[k];
    const ltree::replica::SessionStats& s = m.session->stats();
    const ltree::replica::SessionStats& s0 = session_before[k];
    counts["wire_bytes"] += m.timing.wire_bytes() - wire_before[k];
    counts["sync_rounds"] += s.rounds - s0.rounds;
    counts["attempts"] += s.attempts - s0.attempts;
    counts["applied"] += s.deltas_applied + s.snapshots_applied -
                         s0.deltas_applied - s0.snapshots_applied;
    counts["snapshots"] += s.snapshots_applied - s0.snapshots_applied;
    counts["backoff_ms"] += s.backoff_ms_total - s0.backoff_ms_total;
  }
  if (scheme_shadow != nullptr &&
      scheme_shadow->relabels() != after.rollup.items_relabeled) {
    acc.Fail("scheme shadow relabel count differs from the store's");
  }

  for (auto& m : mirrors) {
    const Status synced = m->session->SyncRound();
    if (!synced.ok()) acc.Fail("final sync: " + synced.ToString());
    const Status eq = m->mirror.CheckEquivalent(*store);
    if (!eq.ok()) acc.Fail("mirror not equivalent: " + eq.ToString());
    if (ctx.traced) {
      ShadowCatchUp(*store, *m, names, ctx);
      const Status shadow_eq = m->shadow.CheckEquivalent(*store);
      if (!shadow_eq.ok()) acc.Fail("shadow mirror: " + shadow_eq.ToString());
      TimeCodec(*m, &acc);
    }
    const ltree::audit::Report session_audit = m->session->Validate();
    if (!session_audit.ok()) acc.Fail("session audit: " + session_audit.ToString());
  }
  tracer->Truncate(phase_spans);
  const ltree::audit::Report audit = store->Validate();
  if (!audit.ok()) acc.Fail("store Validate: " + audit.ToString());

  times.counts = std::move(counts);
  return times;
}

}  // namespace

RoundResult RunDocstoreMixedRound(const RoundContext& ctx) {
  return RunStoreRound(DocstoreMixedShape(), ctx);
}

RoundResult RunReplicaLossyRound(const RoundContext& ctx) {
  return RunStoreRound(ReplicaLossyShape(), ctx);
}

}  // namespace perfbench
