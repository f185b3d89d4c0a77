// LabeledDocument: the end-to-end system of the paper.
//
// Binds an ordered XML document to a labeling scheme over its tag stream
// (begin tag, end tag and text-section leaves, Section 2) and maintains a
// relational NodeTable whose (start, end) interval labels stay valid across
// edits: the scheme's relabel notifications are applied to the table in
// place, so query plans built on label comparisons keep working without any
// re-indexing — the paper's core selling point.
//
// The labeling scheme is pluggable: the document owns a listlab::LabelStore
// chosen by spec string (factory.h grammar, e.g. "ltree:16:4",
// "virtual:16:4", "bender", "gap:64", "sequential"), so the same parse ->
// node table -> label-join -> edit pipeline runs unchanged over the paper's
// L-Tree, its virtual variant, and every baseline it compares against.
//
// Element updates:
//   * InsertElement, InsertText, InsertFragment — a new element (two
//     leaves), text node (one leaf) or parsed subtree: all three attach the
//     node, then insert its whole tag stream with one label-store call (the
//     Section 4.1 batch insertion — on the L-Tree schemes this rides the
//     plan/apply pipeline: one coalesced rebuild region, one relabel pass,
//     surfaced as MaintStats::relabel_passes / coalesced_regions);
//   * DeleteSubtree        — erases the leaves (tombstones on the L-Tree
//     variants, physical unlink on the baselines; see order_maintainer.h)
//     and drops the rows.

#ifndef LTREE_DOCSTORE_LABELED_DOCUMENT_H_
#define LTREE_DOCSTORE_LABELED_DOCUMENT_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "listlab/order_maintainer.h"
#include "query/node_table.h"
#include "xml/parser.h"
#include "xml/xml_node.h"

namespace ltree {
namespace docstore {

class LabeledDocument : private RelabelListener {
 public:
  /// Builds the store from parsed XML text (bulk load, Section 2.2) over
  /// the labeling scheme named by `scheme_spec` (factory.h grammar).
  static Result<std::unique_ptr<LabeledDocument>> FromXml(
      std::string_view xml_text, const std::string& scheme_spec);

  /// Builds the store from an existing document (takes ownership).
  static Result<std::unique_ptr<LabeledDocument>> FromDocument(
      xml::Document doc, const std::string& scheme_spec);

  ~LabeledDocument() override;

  // ---------------------------------------------------------------- updates

  /// Inserts a new childless element under `parent_id`. If `after_sibling`
  /// is non-zero the new element goes right after that child; otherwise it
  /// becomes the last child. Returns the new element's node id.
  Result<xml::NodeId> InsertElement(xml::NodeId parent_id,
                                    xml::NodeId after_sibling,
                                    std::string tag);

  /// Inserts a new text node (single tag-stream leaf) under `parent_id`.
  Result<xml::NodeId> InsertText(xml::NodeId parent_id,
                                 xml::NodeId after_sibling, std::string text);

  /// Parses `fragment` and inserts the whole subtree right after
  /// `after_sibling` (a child of `parent_id`), or as the last child when
  /// `after_sibling` is 0. All leaves enter the label store as one batch
  /// (Section 4.1). Returns the fragment root's node id.
  Result<xml::NodeId> InsertFragment(xml::NodeId parent_id,
                                     xml::NodeId after_sibling,
                                     std::string_view fragment);

  /// Removes the subtree rooted at `node_id`: its leaves are erased from
  /// the label store (no relabeling), its rows leave the table, and the DOM
  /// subtree is destroyed.
  Status DeleteSubtree(xml::NodeId node_id);

  // ---------------------------------------------------------------- queries

  /// The current (start, end) interval label of a node.
  Result<query::Region> GetRegion(xml::NodeId node_id) const;

  /// True iff `ancestor` is a proper ancestor of `descendant`, decided
  /// purely by label comparison (Proposition 1 / Section 1).
  Result<bool> IsAncestor(xml::NodeId ancestor, xml::NodeId descendant) const;

  const query::NodeTable& table() const { return table_; }
  const xml::Document& document() const { return doc_; }

  /// The labeling scheme, read-only: name, stats, label bits, invariants.
  /// (Mutating the store directly would desync the node table, so no
  /// mutable accessor exists — use the update methods above.)
  const listlab::LabelStore& label_store() const { return *store_; }

  /// The spec string this document was constructed with.
  const std::string& scheme_spec() const { return spec_; }

  /// Cross-checks DOM order/ancestry against table regions and the label
  /// store's labels.
  Status CheckConsistency() const;

 private:
  struct LeafPair {
    listlab::ItemHandle begin = listlab::kInvalidItemHandle;
    /// kInvalidItemHandle for a text node (one leaf).
    listlab::ItemHandle end = listlab::kInvalidItemHandle;
  };

  LabeledDocument(xml::Document doc,
                  std::unique_ptr<listlab::LabelStore> store,
                  std::string spec);

  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;

  Status BulkLoadFromDocument();

  /// Where a new last child / next sibling goes: its DOM parent and left
  /// sibling (nullptr: last child) and its tag-stream anchor in the store.
  struct Anchor {
    xml::Node* parent;
    xml::Node* sibling;
    listlab::Where where;
    listlab::ItemHandle pos;
  };

  /// Resolves `after_sibling` (0: append as the last child) under the live
  /// element `parent_id`.
  Result<Anchor> ResolveAnchor(xml::NodeId parent_id,
                               xml::NodeId after_sibling) const;

  /// The shared insert path: attaches the unattached subtree `fresh` at
  /// `anchor`, inserts its tag stream into the store with one call, and
  /// registers it — or detaches it again if the store refuses.
  Result<xml::NodeId> InsertSubtree(const Anchor& anchor, xml::Node* fresh);

  /// Leaf cookies of a tag stream, in order.
  static std::vector<LeafCookie> StreamCookies(
      const std::vector<xml::TagEntry>& stream);

  /// Records `handles` (one per `stream` entry, in order) in the handle
  /// map and registers every element of the stream in the node table.
  Status RegisterStream(const std::vector<xml::TagEntry>& stream,
                        std::span<const listlab::ItemHandle> handles);

  /// Registers a freshly labeled node in the node table, reading its
  /// labels under `guard`.
  Status RegisterNode(const listlab::LabelStore::ReadGuard& guard,
                      const xml::Node* node, LeafPair leaves);

  /// Recursively copies `src` (from another document) under `parent`,
  /// appending to `cookies`/`nodes` in tag-stream order.
  xml::Node* CopySubtree(const xml::Node* src, xml::Node* parent);

  static LeafCookie BeginCookie(xml::NodeId id) { return id << 1; }
  static LeafCookie EndCookie(xml::NodeId id) { return (id << 1) | 1; }

  xml::Document doc_;
  std::unique_ptr<listlab::LabelStore> store_;
  std::string spec_;
  query::NodeTable table_;
  std::unordered_map<xml::NodeId, LeafPair> leaves_;
};

}  // namespace docstore
}  // namespace ltree

#endif  // LTREE_DOCSTORE_LABELED_DOCUMENT_H_
