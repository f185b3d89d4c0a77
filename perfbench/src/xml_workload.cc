// xml-ingest-query: a corpus of generated catalog documents is parsed and
// bulk-loaded into LabeledDocuments over the virtual L-Tree, then edited
// with fragment inserts and subtree deletes interleaved with five fixed
// path queries. The store and replica layers are not on this path.

#include <functional>
#include <memory>
#include <unordered_map>

#include "docstore/labeled_document.h"
#include "common/macros.h"
#include "listlab/factory.h"
#include "listlab/ltree_store.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using ltree::LeafCookie;
using ltree::Status;
using ltree::docstore::LabeledDocument;
using ltree::listlab::ItemHandle;
using ltree::xml::Node;
using ltree::xml::NodeId;

constexpr char kSpec[] = "virtual:16:4";
constexpr uint64_t kCorpusBytes = 256u << 10;
constexpr uint64_t kEdits = 5000;
constexpr uint64_t kEditsPerQuery = 4;
/// One query in this many is checked against the DOM evaluator.
constexpr uint64_t kCheckEvery = 16;

/// Tag-stream leaves of a subtree in document order: (node, is end tag).
std::vector<std::pair<NodeId, bool>> SubtreeLeaves(const Node* root) {
  std::vector<std::pair<NodeId, bool>> out;
  const std::function<void(const Node*)> walk = [&](const Node* n) {
    out.emplace_back(n->id, false);
    if (n->IsText()) return;
    for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      walk(c);
    }
    out.emplace_back(n->id, true);
  };
  walk(root);
  return out;
}

/// The document's tag stream on a bare LabelStore of the same spec, with
/// bench-side node -> leaf handles: what the edits cost in the scheme
/// alone. The handles are found outside the timed calls.
class LeafShadow {
 public:
  static std::unique_ptr<LeafShadow> Make(const LabeledDocument& doc) {
    auto shadow = std::make_unique<LeafShadow>();
    shadow->store_ = ltree::listlab::MakeLabelStore(kSpec).ValueOrDie();
    const std::vector<std::pair<NodeId, bool>> leaves =
        SubtreeLeaves(doc.document().root());
    std::vector<LeafCookie> cookies(leaves.size());
    for (LeafCookie& c : cookies) c = shadow->next_cookie_++;
    std::vector<ItemHandle> handles;
    LTREE_CHECK_OK(shadow->store_->BulkLoad(cookies, &handles));
    for (size_t i = 0; i < leaves.size(); ++i) {
      shadow->Slot(leaves[i]) = handles[i];
    }
    return shadow;
  }

  /// Inserts `leaves` right after the end tag of `after`.
  Status Insert(NodeId after, const std::vector<std::pair<NodeId, bool>>& leaves,
                Tracer* tracer, uint32_t span) {
    std::vector<LeafCookie> cookies(leaves.size());
    for (LeafCookie& c : cookies) c = next_cookie_++;
    std::vector<ItemHandle> handles;
    const ItemHandle pos = Slot({after, true});
    {
      Tracer::Scope apply = tracer->Open(span);
      LTREE_RETURN_IF_ERROR(store_->InsertBatchAfter(pos, cookies, &handles));
    }
    for (size_t i = 0; i < leaves.size(); ++i) Slot(leaves[i]) = handles[i];
    return Status::OK();
  }

  Status Erase(const std::vector<std::pair<NodeId, bool>>& leaves,
               Tracer* tracer, uint32_t span) {
    std::vector<ItemHandle> handles;
    for (const auto& leaf : leaves) handles.push_back(Slot(leaf));
    {
      Tracer::Scope apply = tracer->Open(span);
      for (const ItemHandle h : handles) {
        LTREE_RETURN_IF_ERROR(store_->Erase(h));
      }
    }
    for (const auto& leaf : leaves) handles_.erase(Key(leaf));
    return Status::OK();
  }

  uint64_t relabels() const { return store_->stats().items_relabeled; }

 private:
  static uint64_t Key(const std::pair<NodeId, bool>& leaf) {
    return (leaf.first << 1) | (leaf.second ? 1 : 0);
  }
  ItemHandle& Slot(const std::pair<NodeId, bool>& leaf) {
    return handles_[Key(leaf)];
  }

  std::unique_ptr<ltree::listlab::LabelStore> store_;
  std::unordered_map<uint64_t, ItemHandle> handles_;
  LeafCookie next_cookie_ = 1;
};

struct Doc {
  std::unique_ptr<LabeledDocument> labeled;
  std::vector<NodeId> books;
  std::unique_ptr<LeafShadow> shadow;
};

uint64_t RangeCounts(const LabeledDocument& doc) {
  const auto* store =
      dynamic_cast<const ltree::listlab::VirtualLTreeStore*>(&doc.label_store());
  return store == nullptr ? 0 : store->tree().stats().range_counts;
}

std::vector<NodeId> ChaptersOf(const LabeledDocument& doc, NodeId book) {
  std::vector<NodeId> out;
  const Node* b = doc.document().FindById(book);
  for (const Node* c = b->first_child; c != nullptr; c = c->next_sibling) {
    if (c->IsElement() && c->tag == "chapter") out.push_back(c->id);
  }
  return out;
}

/// Scheme counters summed over the documents (and their shadows).
Fingerprint SchemeCounts(const std::vector<Doc>& docs) {
  Fingerprint out = {{"relabels", 0},   {"inserts", 0}, {"rebalances", 0},
                     {"range_counts", 0}, {"heap_bytes", 0},  {"live_items", 0},
                     {"nodes", 0},        {"shadow_relabels", 0}};
  for (const Doc& d : docs) {
    const ltree::listlab::LabelStore& s = d.labeled->label_store();
    out["relabels"] += s.stats().items_relabeled;
    out["inserts"] += s.stats().inserts;
    out["rebalances"] += s.stats().rebalances;
    out["range_counts"] += RangeCounts(*d.labeled);
    out["heap_bytes"] += s.ApproxHeapBytes();
    out["live_items"] += s.size();
    out["nodes"] += d.labeled->document().num_nodes();
    if (d.shadow != nullptr) out["shadow_relabels"] += d.shadow->relabels();
  }
  return out;
}

}  // namespace

const std::vector<std::string>& QueryPaths() {
  static const std::vector<std::string> kPaths = {
      "//book//title", "/site/books//para", "//chapter/title", "//book//*",
      "/site//title"};
  return kPaths;
}

RoundResult RunXmlIngestQueryRound(const RoundContext& ctx) {
  Accum& acc = *ctx.acc;
  Tracer* tracer = ctx.tracer;
  RoundResult times;
  const uint32_t ingest_span = tracer->Intern("ingest");
  const uint32_t parse_span = tracer->Intern("xml.parse");
  const uint32_t bulkload_span = tracer->Intern("docstore.bulkload");
  const uint32_t edit_span = tracer->Intern("edit");
  const uint32_t insert_span = tracer->Intern("docstore.insert_fragment");
  const uint32_t delete_span = tracer->Intern("docstore.delete_subtree");
  const uint32_t query_span = tracer->Intern("query");
  const uint32_t shadow_span = tracer->Intern("shadow");
  const uint32_t listlab_span = tracer->Intern("listlab.apply");
  std::vector<uint32_t> plan_spans;
  for (const std::string& p : QueryPaths()) {
    plan_spans.push_back(tracer->Intern("query.label_plan." + PathMetricKey(p)));
  }

  // ------------------------------------------------- set-up: the inputs
  const int64_t setup_start = NowNs();
  ltree::Rng rng(ctx.seed);
  std::vector<std::string> corpus;
  uint64_t corpus_bytes = 0;
  // Document sizes climb a fixed ladder, so every input holds the same mix
  // of small and large documents and the seed varies their content.
  for (uint64_t i = 0; corpus_bytes < kCorpusBytes; ++i) {
    const uint64_t books = 20 + 60 * (i % 6);
    const auto chapters = static_cast<uint32_t>(2 + i % 4);
    corpus.push_back(
        ltree::workload::GenerateCatalogXml(books, chapters, rng.Next64()));
    corpus_bytes += corpus.back().size();
  }
  std::vector<std::string> fragments;
  for (int i = 0; i < 8; ++i) {
    fragments.push_back("<chapter><title>Added " + std::to_string(i) +
                        "</title><para>" + std::string(20 + 12 * i, 'x') +
                        "</para></chapter>");
  }
  std::vector<ltree::query::PathQuery> queries;
  for (const std::string& p : QueryPaths()) {
    queries.push_back(ltree::query::PathQuery::Parse(p).ValueOrDie());
  }
  const double setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  if (!ctx.traced) acc.setup_s.Add(setup_s);

  // Bench-side work inside the phase, left out of its time: lookups and
  // output checks (both modes), shadow replays (traced rounds).
  int64_t bench_ns = 0;
  int64_t check_ns = 0;
  int64_t shadow_ns = 0;
  const int64_t phase_start = NowNs();

  // ---------------------------------------------------------- ingestion
  std::vector<Doc> docs(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const int64_t t0 = NowNs();
    ltree::Result<std::unique_ptr<LabeledDocument>> labeled =
        Status::NotFound("not ingested");
    uint64_t nodes = 0;
    {
      Tracer::Scope ingest = tracer->Open(ingest_span);
      ltree::Result<ltree::xml::Document> parsed = Status::NotFound("unparsed");
      {
        Tracer::Scope parse = tracer->Open(parse_span);
        parsed = ltree::xml::Parse(corpus[i]);
      }
      if (parsed.ok()) {
        nodes = parsed->num_nodes();
        Tracer::Scope load = tracer->Open(bulkload_span);
        labeled = LabeledDocument::FromDocument(std::move(*parsed), kSpec);
      } else {
        labeled = parsed.status();
      }
    }
    const int64_t t1 = NowNs();
    acc.Call(labeled.ok());
    if (!labeled.ok()) {
      acc.Fail("ingest: " + labeled.status().ToString());
      return times;
    }
    if (!ctx.traced) {
      acc.ingest_bytes += corpus[i].size();
      acc.ingest_s += static_cast<double>(t1 - t0) * 1e-9;
    } else {
      acc.parse_bytes += corpus[i].size();
      acc.bulkload_nodes += nodes;
    }
    docs[i].labeled = std::move(*labeled);
  }

  // The books of each document and, traced, the scheme-only shadow.
  const int64_t index_start = NowNs();
  for (Doc& d : docs) {
    const Node* root = d.labeled->document().root();
    for (const Node* s = root->first_child; s != nullptr; s = s->next_sibling) {
      if (s->tag != "books") continue;
      for (const Node* b = s->first_child; b != nullptr; b = b->next_sibling) {
        d.books.push_back(b->id);
      }
    }
  }
  const int64_t shadow_start = NowNs();
  bench_ns += shadow_start - index_start;
  if (ctx.traced) {
    for (Doc& d : docs) d.shadow = LeafShadow::Make(*d.labeled);
  }
  shadow_ns += NowNs() - shadow_start;

  const Fingerprint before = SchemeCounts(docs);

  // -------------------------------------------------- edits and queries
  Fingerprint counts;
  const int64_t loop_start = NowNs();
  for (uint64_t i = 0; i < kEdits; ++i) {
    Doc& d = docs[rng.Uniform(docs.size())];
    LabeledDocument& doc = *d.labeled;
    const NodeId book = d.books[rng.Uniform(d.books.size())];
    const std::vector<NodeId> chapters = ChaptersOf(doc, book);
    const NodeId chapter = chapters[rng.Uniform(chapters.size())];
    const bool erase = chapters.size() > 1 && rng.Bernoulli(0.5);
    std::vector<std::pair<NodeId, bool>> doomed;
    if (erase && d.shadow != nullptr) {
      Tracer::Scope root = tracer->Open(shadow_span);
      doomed = SubtreeLeaves(doc.document().FindById(chapter));
    }
    const std::string& fragment = fragments[rng.Uniform(fragments.size())];

    Status st;
    NodeId added = 0;
    const int64_t t0 = NowNs();
    {
      Tracer::Scope edit = tracer->Open(edit_span);
      if (erase) {
        Tracer::Scope del = tracer->Open(delete_span);
        st = doc.DeleteSubtree(chapter);
      } else {
        Tracer::Scope ins = tracer->Open(insert_span);
        ltree::Result<NodeId> r = doc.InsertFragment(book, chapter, fragment);
        st = r.status();
        if (r.ok()) added = *r;
      }
    }
    const int64_t t1 = NowNs();
    acc.Call(st.ok());
    if (!ctx.traced) acc.edit_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    ++counts[erase ? "subtree_deletes" : "fragment_inserts"];
    if (d.shadow != nullptr && st.ok()) {
      Tracer::Scope root = tracer->Open(shadow_span);
      const Status replay =
          erase ? d.shadow->Erase(doomed, tracer, listlab_span)
                : d.shadow->Insert(
                      chapter, SubtreeLeaves(doc.document().FindById(added)),
                      tracer, listlab_span);
      if (!replay.ok()) acc.Fail("shadow replay: " + replay.ToString());
    }

    if ((i + 1) % kEditsPerQuery != 0) continue;
    const uint64_t q = (i + 1) / kEditsPerQuery;
    const size_t path = q % queries.size();
    const Doc& target = docs[rng.Uniform(docs.size())];
    std::vector<const ltree::query::NodeRow*> rows;
    const int64_t q0 = NowNs();
    {
      Tracer::Scope query = tracer->Open(query_span);
      Tracer::Scope plan = tracer->Open(plan_spans[path]);
      rows = ltree::query::EvaluateWithLabels(queries[path],
                                              target.labeled->table());
    }
    const int64_t q1 = NowNs();
    acc.Call(true);
    if (!ctx.traced) acc.read_us.Add(static_cast<double>(q1 - q0) * 1e-3);
    counts["queries"] += 1;
    counts["query_results"] += rows.size();
    if (q % kCheckEvery == 0) {
      const int64_t c0 = NowNs();
      const std::vector<NodeId> truth = ltree::query::EvaluateOnDocument(
          queries[path], target.labeled->document());
      bool same = truth.size() == rows.size();
      for (size_t k = 0; same && k < rows.size(); ++k) {
        same = rows[k]->id == truth[k];
      }
      if (!same) acc.Fail("label plan differs from DOM for " + QueryPaths()[path]);
      const ltree::query::NodeTable& table = target.labeled->table();
      for (const auto& step : queries[path].steps()) {
        counts["checked_rows"] += step.tag == "*" ? table.AllElements().size()
                                                  : table.ByTag(step.tag).size();
      }
      counts["checked_results"] += rows.size();
      check_ns += NowNs() - c0;
    }
  }
  const int64_t phase_end = NowNs();
  if (ctx.traced) {
    shadow_ns += RootTimeNs(*tracer, shadow_span);
    acc.spans.Fold(*tracer);
  }
  times.phase_s =
      static_cast<double>(phase_end - phase_start - bench_ns - check_ns) * 1e-9;
  times.instrument_s = static_cast<double>(shadow_ns) * 1e-9;
  if (!ctx.traced) {
    acc.loop_edits += kEdits;
    acc.loop_s += static_cast<double>(phase_end - loop_start - check_ns) * 1e-9;
  }

  // ------------------------------------------------- counts and the gates
  counts["edits"] = kEdits;
  counts["documents"] = docs.size();
  counts["corpus_bytes"] = corpus_bytes;
  const Fingerprint after = SchemeCounts(docs);
  for (const auto& [name, value] : after) {
    const bool gauge = name == "heap_bytes" || name == "live_items" ||
                       name == "nodes";
    counts[name] = gauge ? value : value - before.at(name);
  }
  for (const Doc& d : docs) {
    const Status consistent = d.labeled->CheckConsistency();
    if (!consistent.ok()) acc.Fail("CheckConsistency: " + consistent.ToString());
  }
  if (ctx.traced && counts["shadow_relabels"] != counts["relabels"]) {
    acc.Fail("leaf shadow relabel count differs from the documents'");
  }
  counts.erase("shadow_relabels");
  times.counts = std::move(counts);
  return times;
}

}  // namespace perfbench
