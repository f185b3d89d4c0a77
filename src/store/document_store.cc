#include "store/document_store.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/random.h"
#include "core/failpoint.h"
#include "listlab/factory.h"

namespace ltree {
namespace store {

// One shard: the labeling scheme and its versioned feed. The ctx is itself
// the scheme's RelabelListener — the "feed tap" that turns listener
// callbacks into versioned feed events. Schemes report live items only, so
// the tap just holds back the items the current call is creating or
// rolling back: their cookies are >= the store's next cookie, which
// advances past them only once the scheme call has returned OK.
struct DocumentStore::ShardCtx : RelabelListener {
  ShardCtx(std::unique_ptr<listlab::LabelStore> s, uint64_t feed_capacity,
           const LeafCookie* next_cookie)
      : store(std::move(s)), feed(feed_capacity), next_cookie(next_cookie) {
    store->set_listener(this);
  }

  void OnRelabel(LeafCookie cookie, Label old_label,
                 Label new_label) override {
    if (cookie >= *next_cookie) return;  // fresh item of the current call
    feed.Append({.kind = FeedEvent::Kind::kRelabel,
                 .cookie = cookie,
                 .old_label = old_label,
                 .new_label = new_label});
    ++relabels_published;
  }

  void OnErase(LeafCookie cookie, Label last_label) override {
    if (cookie >= *next_cookie) return;  // rolled-back batch item
    feed.Append({.kind = FeedEvent::Kind::kErase,
                 .cookie = cookie,
                 .old_label = last_label,
                 .new_label = kInvalidLabel});
    ++erases_published;
  }

  std::unique_ptr<listlab::LabelStore> store;
  ChangeFeed feed;
  const LeafCookie* next_cookie;  // the owning store's next_cookie_
  uint64_t inserts_published = 0;
  uint64_t erases_published = 0;
  uint64_t relabels_published = 0;
};

DocumentStore::DocumentStore(DocStoreOptions options)
    : options_(std::move(options)) {}

DocumentStore::~DocumentStore() = default;

Result<std::unique_ptr<DocumentStore>> DocumentStore::Make(
    const DocStoreOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.feed_capacity == 0) {
    return Status::InvalidArgument("feed_capacity must be >= 1");
  }
  LTREE_ASSIGN_OR_RETURN(
      auto schemes,
      listlab::MakeLabelStores(options.scheme_spec, options.num_shards));
  std::unique_ptr<DocumentStore> out(new DocumentStore(options));
  out->shards_.reserve(options.num_shards);
  for (auto& scheme : schemes) {
    out->shards_.push_back(std::make_unique<ShardCtx>(
        std::move(scheme), options.feed_capacity, &out->next_cookie_));
  }
  return out;
}

uint32_t DocumentStore::ShardOf(DocId doc) const {
  // SplitMix64 scrambles sequential ids so routing stays uniform no matter
  // how callers mint DocIds.
  return static_cast<uint32_t>(SplitMix64(doc).Next() %
                               shards_.size());
}

// ---------------------------------------------------------------- documents

Status DocumentStore::CreateDocument(DocId doc) {
  if (docs_.count(doc) != 0) {
    return Status::AlreadyExists("document " + std::to_string(doc) +
                                 " already exists");
  }
  docs_.emplace(doc, DocState{.shard = ShardOf(doc), .items = {}});
  AutoValidate("CreateDocument");
  return Status::OK();
}

Status DocumentStore::DropDocument(DocId doc) {
  LTREE_FAILPOINT("store.erase");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  ShardCtx& ctx = *shards_[state->shard];
  for (const listlab::ItemHandle handle : state->items) {
    LTREE_RETURN_IF_ERROR(ctx.store->Erase(handle));  // tap publishes kErase
    ++ledger_.erases;
  }
  docs_.erase(doc);
  AutoValidate("DropDocument");
  return Status::OK();
}

Result<uint64_t> DocumentStore::DocSize(DocId doc) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  return static_cast<uint64_t>(state->items.size());
}

// --------------------------------------------------------------- item edits

Result<DocumentStore::DocState*> DocumentStore::FindDoc(DocId doc) {
  auto it = docs_.find(doc);
  if (it == docs_.end()) {
    return Status::NotFound("unknown document " + std::to_string(doc));
  }
  return &it->second;
}

Result<const DocumentStore::DocState*> DocumentStore::FindDoc(
    DocId doc) const {
  auto it = docs_.find(doc);
  if (it == docs_.end()) {
    return Status::NotFound("unknown document " + std::to_string(doc));
  }
  return &it->second;
}

void DocumentStore::PublishInsert(ShardCtx& ctx, LeafCookie cookie,
                                  listlab::ItemHandle handle) {
  // The writer's own thread, between mutations.
  const listlab::LabelStore::ReadGuard guard = ctx.store->QuiescentRead();
  const Label label = ctx.store->LabelOf(guard, handle).ValueOrDie();
  ctx.feed.Append({.kind = FeedEvent::Kind::kInsert,
                   .cookie = cookie,
                   .old_label = kInvalidLabel,
                   .new_label = label});
  ++ctx.inserts_published;
  ++ledger_.inserts;
}

Result<LeafCookie> DocumentStore::InsertOne(DocId doc, listlab::Where where,
                                            uint64_t rank) {
  LTREE_FAILPOINT("store.insert");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  ShardCtx& ctx = *shards_[state->shard];
  const uint64_t size = state->items.size();
  // Document position -> shard-list position. A document's first item
  // goes to the shard list's tail — documents sharing a shard interleave
  // there, which is fine, document order lives in the registry.
  listlab::ItemHandle pos = listlab::kInvalidItemHandle;
  size_t at = 0;
  if (size == 0) {
    where = listlab::Where::kBack;
  } else if (where == listlab::Where::kBack) {
    where = listlab::Where::kAfter;
    pos = state->items.back();
    at = size;
  } else if (rank >= size) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " out of range for document of size " +
                              std::to_string(size));
  } else {
    pos = state->items[rank];
    at = where == listlab::Where::kBefore ? rank : rank + 1;
  }
  const LeafCookie cookie = next_cookie_;
  LTREE_ASSIGN_OR_RETURN(const listlab::ItemHandle inserted,
                         ctx.store->Insert(where, pos, {&cookie, 1}));
  ++next_cookie_;
  state->items.insert(state->items.begin() + static_cast<ptrdiff_t>(at),
                      inserted);
  PublishInsert(ctx, cookie, inserted);
  AutoValidate("Insert");
  return cookie;
}

Result<LeafCookie> DocumentStore::Append(DocId doc) {
  return InsertOne(doc, listlab::Where::kBack, 0);
}

Result<LeafCookie> DocumentStore::InsertAfterRank(DocId doc, uint64_t rank) {
  return InsertOne(doc, listlab::Where::kAfter, rank);
}

Result<LeafCookie> DocumentStore::InsertBeforeRank(DocId doc, uint64_t rank) {
  return InsertOne(doc, listlab::Where::kBefore, rank);
}

Status DocumentStore::InsertBatchAfterRank(DocId doc, uint64_t rank,
                                           uint64_t count,
                                           std::vector<LeafCookie>* cookies) {
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  if (count == 0) return Status::OK();
  LTREE_FAILPOINT("store.insert");
  ShardCtx& ctx = *shards_[state->shard];
  if (!state->items.empty() && rank >= state->items.size()) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " out of range for document of size " +
                              std::to_string(state->items.size()));
  }
  std::vector<LeafCookie> fresh(count);
  std::iota(fresh.begin(), fresh.end(), next_cookie_);
  std::vector<listlab::ItemHandle> handles;
  // A mid-batch failure makes the scheme roll back by erasing the partial
  // prefix, which shows up in its MaintStats; snapshot the counters so the
  // stats-rollup conservation rule can account for items that never became
  // live.
  const MaintStats pre = ctx.store->stats();
  const Status st =
      state->items.empty()
          ? ctx.store->PushBackBatch(fresh, &handles)
          : ctx.store->InsertBatchAfter(state->items[rank], fresh, &handles);
  if (!st.ok()) {
    const MaintStats post = ctx.store->stats();
    ledger_.rolled_back_inserts += post.inserts - pre.inserts;
    ledger_.rolled_back_erases += post.erases - pre.erases;
    return st;
  }
  LTREE_CHECK(handles.size() == count);
  next_cookie_ += count;
  const size_t at = state->items.empty() ? 0 : static_cast<size_t>(rank) + 1;
  state->items.insert(state->items.begin() + static_cast<ptrdiff_t>(at),
                      handles.begin(), handles.end());
  for (uint64_t i = 0; i < count; ++i) {
    PublishInsert(ctx, fresh[i], handles[i]);
  }
  if (cookies != nullptr) {
    cookies->insert(cookies->end(), fresh.begin(), fresh.end());
  }
  AutoValidate("InsertBatchAfterRank");
  return Status::OK();
}

Status DocumentStore::EraseAt(DocId doc, uint64_t rank) {
  LTREE_FAILPOINT("store.erase");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  if (rank >= state->items.size()) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " out of range for document of size " +
                              std::to_string(state->items.size()));
  }
  ShardCtx& ctx = *shards_[state->shard];
  LTREE_RETURN_IF_ERROR(
      ctx.store->Erase(state->items[rank]));  // tap publishes kErase
  state->items.erase(state->items.begin() + static_cast<ptrdiff_t>(rank));
  ++ledger_.erases;
  AutoValidate("EraseAt");
  return Status::OK();
}

Status DocumentStore::Apply(DocId doc, const workload::ListOp& op) {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  const uint64_t size = state->items.size();
  const uint64_t rank = size == 0 ? 0 : std::min(op.rank, size - 1);
  switch (op.kind) {
    case workload::ListOp::Kind::kInsertAfter:
      return (size == 0 ? Append(doc) : InsertAfterRank(doc, rank)).status();
    case workload::ListOp::Kind::kInsertBefore:
      return (size == 0 ? Append(doc) : InsertBeforeRank(doc, rank)).status();
    case workload::ListOp::Kind::kErase:
      if (size == 0) {
        return Status::FailedPrecondition("erase on empty document");
      }
      return EraseAt(doc, rank);
  }
  return Status::InvalidArgument("unknown op kind");
}

// ------------------------------------------------------------------ queries

Result<Label> DocumentStore::LabelAt(DocId doc, uint64_t rank) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  if (rank >= state->items.size()) {
    return Status::OutOfRange("rank out of range");
  }
  const listlab::LabelStore& scheme = *shards_[state->shard]->store;
  return scheme.LabelOf(scheme.QuiescentRead(), state->items[rank]);
}

Result<std::vector<LeafCookie>> DocumentStore::DocCookies(DocId doc) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  const listlab::LabelStore& scheme = *shards_[state->shard]->store;
  const listlab::LabelStore::ReadGuard guard = scheme.QuiescentRead();
  std::vector<LeafCookie> out;
  out.reserve(state->items.size());
  for (const listlab::ItemHandle handle : state->items) {
    LTREE_ASSIGN_OR_RETURN(const LeafCookie cookie,
                           scheme.CookieOf(guard, handle));
    out.push_back(cookie);
  }
  return out;
}

const listlab::LabelStore& DocumentStore::shard_store(uint32_t shard) const {
  return *shards_[shard]->store;
}

const ChangeFeed& DocumentStore::feed(uint32_t shard) const {
  return shards_[shard]->feed;
}

std::vector<std::pair<Label, LeafCookie>> DocumentStore::ShardState(
    uint32_t shard) const {
  // The scheme's list order is label order, its cookies are the store's,
  // and the shard-routing rule keeps its live items equal to the shard's
  // registered ones, so its scan is the snapshot. The guard keeps the walk
  // safe against this shard's writer.
  const listlab::LabelStore& scheme = *shards_[shard]->store;
  return scheme.ScanAll(scheme.AcquireRead());
}

// ----------------------------------------------------------- change-feed sync

StateVector DocumentStore::CurrentStateVector() const {
  StateVector sv(num_shards());
  for (uint32_t i = 0; i < num_shards(); ++i) {
    sv.Advance(i, shards_[i]->feed.last_seq());
  }
  return sv;
}

Result<CatchUpResult> DocumentStore::CatchUp(uint32_t shard,
                                             uint64_t from_seq) const {
  LTREE_FAILPOINT("store.catchup");
  if (shard >= num_shards()) {
    return Status::InvalidArgument("unknown shard " + std::to_string(shard));
  }
  const ShardCtx& ctx = *shards_[shard];
  const uint64_t last = ctx.feed.last_seq();
  if (from_seq > last) {
    return Status::InvalidArgument(
        "subscriber position " + std::to_string(from_seq) +
        " is beyond shard feed head " + std::to_string(last));
  }
  CatchUpResult out;
  out.from_seq = from_seq;
  out.to_seq = last;
  if (ctx.feed.CanServeFrom(from_seq)) {
    LTREE_ASSIGN_OR_RETURN(out.events, ctx.feed.EventsSince(from_seq));
    return out;
  }
  // The log has been trimmed past the subscriber: one compact label
  // snapshot replaces replaying the missing prefix.
  out.snapshot = true;
  out.state = ShardState(shard);
  return out;
}

void DocumentStore::TrimFeeds(uint64_t keep) {
  for (auto& ctx : shards_) ctx->feed.TrimTo(keep);
}

// ------------------------------------------------------ subscriber registry

Status DocumentStore::RegisterSubscriber(uint64_t subscriber,
                                         const StateVector& position) {
  if (position.num_shards() != num_shards()) {
    return Status::InvalidArgument(
        "subscriber state vector has " + std::to_string(position.num_shards()) +
        " shards, store has " + std::to_string(num_shards()));
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const uint64_t head = shards_[i]->feed.last_seq();
    if (position.seq(i) > head) {
      return Status::InvalidArgument(
          "subscriber position " + std::to_string(position.seq(i)) +
          " for shard " + std::to_string(i) + " is beyond feed head " +
          std::to_string(head));
    }
  }
  subscribers_[subscriber] = position;
  AutoValidate("RegisterSubscriber");
  return Status::OK();
}

Status DocumentStore::UnregisterSubscriber(uint64_t subscriber) {
  if (subscribers_.erase(subscriber) == 0) {
    return Status::NotFound("subscriber " + std::to_string(subscriber) +
                            " is not registered");
  }
  return Status::OK();
}

uint64_t DocumentStore::SlowestSubscriberSeq(uint32_t shard) const {
  uint64_t slowest = shards_[shard]->feed.last_seq();
  for (const auto& [id, position] : subscribers_) {
    slowest = std::min(slowest, position.seq(shard));
  }
  return slowest;
}

uint64_t DocumentStore::TrimToSlowestSubscriber(uint64_t max_retained) {
  uint64_t trimmed = 0;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    ChangeFeed& feed = shards_[i]->feed;
    // Events in (slowest, last_seq] are still owed to some subscriber;
    // everything at or below the slowest position has been applied
    // everywhere. The budget wins over the laggard: past it the laggard
    // re-syncs via snapshot instead of pinning memory.
    const uint64_t needed = feed.last_seq() - SlowestSubscriberSeq(i);
    const uint64_t before = feed.trimmed();
    feed.TrimTo(std::min(needed, max_retained));
    trimmed += feed.trimmed() - before;
  }
  AutoValidate("TrimToSlowestSubscriber");
  return trimmed;
}

// -------------------------------------------------------------------- stats

StoreStats DocumentStore::stats() const {
  StoreStats out;
  out.documents = docs_.size();
  out.per_shard_items.reserve(shards_.size());
  out.per_shard_heap_bytes.reserve(shards_.size());
  for (const auto& ctx : shards_) {
    out.rollup += ctx->store->stats();
    const uint64_t items = ctx->store->size();
    const uint64_t bytes = ctx->store->ApproxHeapBytes();
    out.live_items += items;
    out.heap_bytes += bytes;
    out.feed_events += ctx->feed.last_seq();
    out.feed_retained += ctx->feed.retained();
    out.feed_trimmed += ctx->feed.trimmed();
    out.per_shard_items.push_back(items);
    out.per_shard_heap_bytes.push_back(bytes);
  }
  return out;
}

audit::Report DocumentStore::Validate() const {
  audit::Report report;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    report.Absorb(shards_[i]->store->Validate(),
                  "docstore:/shard" + std::to_string(i));
  }
  report.Absorb(ValidateStoreLevel(), "");
  return report;
}

audit::Report DocumentStore::ValidateStoreLevel() const {
  audit::Report report;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    report.Absorb(shards_[i]->feed.Validate(),
                  "docstore:/shard" + std::to_string(i));
  }

  // shard-routing: the document registry and the shard schemes form a
  // bijection — every registered handle is live in its shard, none is
  // registered twice, and each shard holds no live item beyond them.
  std::vector<std::vector<listlab::ItemHandle>> handles_per_shard(
      shards_.size());
  for (const auto& [doc, state] : docs_) {
    const std::string doc_path = "docstore:/doc" + std::to_string(doc);
    if (state.shard >= shards_.size()) {
      report.Add(doc_path, "shard-routing",
                 "registered shard " + std::to_string(state.shard) +
                     " out of range");
      continue;
    }
    if (ShardOf(doc) != state.shard) {
      report.Add(doc_path, "shard-routing",
                 "router resolves to shard " + std::to_string(ShardOf(doc)) +
                     " but registry holds shard " +
                     std::to_string(state.shard));
    }
    const listlab::LabelStore& scheme = *shards_[state.shard]->store;
    const listlab::LabelStore::ReadGuard guard = scheme.QuiescentRead();
    for (const listlab::ItemHandle handle : state.items) {
      const Status resolved = scheme.CookieOf(guard, handle).status();
      if (!resolved.ok()) {
        report.Add(doc_path, "shard-routing",
                   "item handle " + std::to_string(handle) +
                       " does not resolve in its shard store: " +
                       resolved.ToString());
      }
      handles_per_shard[state.shard].push_back(handle);
    }
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const ShardCtx& ctx = *shards_[i];
    const std::string path = "docstore:/shard" + std::to_string(i);
    std::vector<listlab::ItemHandle>& handles = handles_per_shard[i];
    std::sort(handles.begin(), handles.end());
    const auto dup = std::adjacent_find(handles.begin(), handles.end());
    if (dup != handles.end()) {
      report.Add(path, "shard-routing",
                 "item handle " + std::to_string(*dup) +
                     " is registered more than once");
    }
    if (handles.size() != ctx.store->size()) {
      report.Add(path, "shard-routing",
                 "documents register " + std::to_string(handles.size()) +
                     " items but the scheme reports " +
                     std::to_string(ctx.store->size()) + " live items");
    }
    // feed publication counters vs the feed's own sequence clock.
    const uint64_t published = ctx.inserts_published + ctx.erases_published +
                               ctx.relabels_published;
    if (published != ctx.feed.last_seq()) {
      report.Add(path + "/feed", "feed-continuity",
                 "published counters sum to " + std::to_string(published) +
                     " but last_seq is " +
                     std::to_string(ctx.feed.last_seq()));
    }
  }

  // subscriber-registry: registered positions must describe this store —
  // right shard count, never ahead of what the feeds actually published.
  for (const auto& [id, position] : subscribers_) {
    const std::string sub_path = "docstore:/subscriber" + std::to_string(id);
    if (position.num_shards() != num_shards()) {
      report.Add(sub_path, "subscriber-registry",
                 "state vector has " + std::to_string(position.num_shards()) +
                     " shards, store has " + std::to_string(num_shards()));
      continue;
    }
    for (uint32_t i = 0; i < num_shards(); ++i) {
      if (position.seq(i) > shards_[i]->feed.last_seq()) {
        report.Add(sub_path, "subscriber-registry",
                   "shard " + std::to_string(i) + " position " +
                       std::to_string(position.seq(i)) +
                       " is beyond feed head " +
                       std::to_string(shards_[i]->feed.last_seq()));
      }
    }
  }

  // stats-rollup: scheme counters, the store ledger and the feed
  // publication counters are three independent bookkeepers of the same
  // event stream.
  MaintStats scheme;
  uint64_t published_inserts = 0;
  uint64_t published_erases = 0;
  for (const auto& ctx : shards_) {
    scheme += ctx->store->stats();
    published_inserts += ctx->inserts_published;
    published_erases += ctx->erases_published;
  }
  const auto check = [&report](uint64_t got, uint64_t want,
                               const std::string& what) {
    if (got != want) {
      report.Add("docstore:", "stats-rollup",
                 what + ": " + std::to_string(got) + " != " +
                     std::to_string(want));
    }
  };
  check(scheme.inserts, ledger_.inserts + ledger_.rolled_back_inserts,
        "scheme insert counters vs store ledger");
  check(scheme.erases, ledger_.erases + ledger_.rolled_back_erases,
        "scheme erase counters vs store ledger");
  check(published_inserts, ledger_.inserts,
        "published insert events vs store ledger");
  check(published_erases, ledger_.erases,
        "published erase events vs store ledger");
  uint64_t live_total = 0;
  for (const auto& ctx : shards_) live_total += ctx->store->size();
  check(live_total, ledger_.inserts - ledger_.erases,
        "live items vs ledger insert/erase balance");
  return report;
}

void DocumentStore::AutoValidate(const char* op) const {
#ifdef LISTLAB_VALIDATE
  // Only the store-layer rules re-run here: under LISTLAB_VALIDATE each
  // shard's scheme already deep-audits itself after every mutation, so
  // repeating those walks per store mutation would square the cost.
  audit::AbortIfViolated(ValidateStoreLevel(), "DocumentStore", op);
#else
  (void)op;
#endif
}

}  // namespace store
}  // namespace ltree
