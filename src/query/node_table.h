// Labeled node table: the relational view of an XML document.
//
// This models the paper's motivating setup (Section 1): XML stored in an
// RDBMS as one row per node carrying the (start, end) interval labels
// produced by the labeling structure, its depth and its parent id. With
// interval labels, the ancestor-descendant test is
//     a.start < d.start && d.end < a.end
// so "//" steps become a single label-comparison join; the edge-table
// alternative [11] must chain one parent-id self-join per level.

#ifndef LTREE_QUERY_NODE_TABLE_H_
#define LTREE_QUERY_NODE_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/params.h"
#include "core/validate.h"
#include "xml/xml_node.h"

namespace ltree {
namespace query {

/// An interval label (begin-tag label, end-tag label).
struct Region {
  Label start = 0;
  Label end = 0;

  /// Strict containment: does this region contain `other`?
  /// (Proposition 1 territory: a is an ancestor of d iff a's interval
  /// includes d's.)
  bool Contains(const Region& other) const {
    return start < other.start && other.end < end;
  }

  bool operator==(const Region& other) const = default;
};

/// One row of the node table.
struct NodeRow {
  xml::NodeId id = 0;
  std::string tag;  ///< empty for text nodes
  Region region;
  int32_t level = 0;          ///< root element = 0
  xml::NodeId parent_id = 0;  ///< 0 for the root
  bool is_text = false;
};

/// In-memory node table with a tag index (rows per tag, sorted by start
/// label) and an edge index (children per parent). Because every labeling
/// scheme in this library is order-preserving, relabeling never reorders
/// rows, so label updates are O(1) in-place writes.
class NodeTable {
 public:
  /// Adds a row. Call Finalize() before querying.
  void Add(NodeRow row);

  /// Sorts and indexes the rows. Fails if regions are malformed (start >=
  /// end) or duplicate ids exist.
  Status Finalize();

  /// Rewrites the start label of a node (relabel hook). O(1).
  Status UpdateStart(xml::NodeId id, Label start);
  /// Rewrites the end label of a node (relabel hook). O(1).
  Status UpdateEnd(xml::NodeId id, Label end);

  /// Appends a new row after Finalize (used by live documents). The table
  /// keeps its indexes consistent; cost O(row count) worst case (vector
  /// insert into tag bucket).
  Status Insert(NodeRow row);

  /// Removes a row by id.
  Status Erase(xml::NodeId id);

  uint64_t size() const { return live_count_; }

  Result<const NodeRow*> Find(xml::NodeId id) const;

  /// Element rows with this tag, sorted by start label.
  std::vector<const NodeRow*> ByTag(const std::string& tag) const;

  /// All element rows, sorted by start label.
  std::vector<const NodeRow*> AllElements() const;

  /// Direct children of a node (by parent id), unsorted.
  std::vector<const NodeRow*> ChildrenOf(xml::NodeId parent) const;

  /// Deep validator: every live element row has a well-formed region
  /// (rule "region-shape": start < end) and every tag bucket is strictly
  /// sorted by start label ("tag-bucket-order"). Paths are
  /// "table:/<tag>/<node id>".
  audit::Report Validate() const;

 private:
  struct Slot {
    NodeRow row;
    bool live = false;
  };

  Status IndexRow(size_t slot_index);

  // deque: stable addresses across Insert (ByTag returns row pointers).
  std::deque<Slot> rows_;
  std::unordered_map<xml::NodeId, size_t> by_id_;
  // tag -> slot indices sorted by region.start
  std::unordered_map<std::string, std::vector<size_t>> by_tag_;
  std::unordered_map<xml::NodeId, std::vector<size_t>> by_parent_;
  uint64_t live_count_ = 0;
  bool finalized_ = false;
};

}  // namespace query
}  // namespace ltree

#endif  // LTREE_QUERY_NODE_TABLE_H_
