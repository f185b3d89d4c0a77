// Ordered XML document model.
//
// The paper treats an XML document as an ordered tree whose textual form is
// "a linear ordered list of begin tags, end tags, and text sections"
// (Section 2). This module provides that tree: element and text nodes with
// sibling order, plus the document-order tag stream the labeling structures
// attach to.

#ifndef LTREE_XML_XML_NODE_H_
#define LTREE_XML_XML_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/validate.h"

namespace ltree {
namespace xml {

enum class NodeType { kElement, kText };

/// Document-unique node identifier (stable across edits; never reused).
using NodeId = uint64_t;

struct Node {
  NodeType type = NodeType::kElement;
  NodeId id = 0;

  /// Element name; empty for text nodes.
  std::string tag;
  /// Attribute list in document order (elements only).
  std::vector<std::pair<std::string, std::string>> attrs;
  /// Text content (text nodes only).
  std::string text;

  Node* parent = nullptr;
  Node* first_child = nullptr;
  Node* last_child = nullptr;
  Node* prev_sibling = nullptr;
  Node* next_sibling = nullptr;

  bool IsElement() const { return type == NodeType::kElement; }
  bool IsText() const { return type == NodeType::kText; }

  /// Value of an attribute, or nullptr.
  const std::string* FindAttr(std::string_view name) const;

  /// Number of children.
  size_t ChildCount() const;
};

/// One entry of the document-order tag stream (Section 2's list
/// "t1 t2 ... tk"): elements contribute a begin and an end tag, text nodes a
/// single section.
struct TagEntry {
  enum class Kind { kBegin, kEnd, kText };
  Kind kind;
  const Node* node;
};

/// An ordered XML document. Owns all its nodes.
class Document {
 public:
  Document();
  ~Document();
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) noexcept;
  Document& operator=(Document&&) noexcept;

  /// The single root element, or nullptr for an empty document.
  Node* root() const { return root_; }

  /// Creates a detached element node owned by this document.
  Node* CreateElement(std::string tag);
  /// Creates a detached text node owned by this document.
  Node* CreateText(std::string text);

  /// Installs `node` as the document root. Fails if a root already exists
  /// or the node is not a detached element.
  Status SetRoot(Node* node);

  /// Appends a detached node as the last child of `parent`.
  Status AppendChild(Node* parent, Node* child);
  /// Inserts a detached node before `ref` (a child of `parent`).
  Status InsertBefore(Node* parent, Node* ref, Node* child);
  /// Inserts a detached node after `ref` (a child of `parent`).
  Status InsertAfter(Node* parent, Node* ref, Node* child);

  /// Detaches `node` from its parent (subtree stays alive and owned).
  Status Detach(Node* node);

  /// Detaches and destroys a subtree.
  Status Remove(Node* node);

  /// Total live nodes (elements + text).
  uint64_t num_nodes() const { return live_nodes_; }
  /// Live element count.
  uint64_t num_elements() const { return live_elements_; }

  /// Node with the given id, or nullptr if unknown or destroyed. O(1).
  Node* FindById(NodeId id) const;

  /// Pre-order traversal of the attached tree.
  void Visit(const std::function<void(const Node&)>& fn) const;

  /// Document-order tag stream of the attached tree (Section 2).
  std::vector<TagEntry> TagStream() const { return TagStream(root_); }

  /// Document-order tag stream of the subtree rooted at `subtree` (empty
  /// for nullptr); attached or not.
  static std::vector<TagEntry> TagStream(const Node* subtree);

  /// Deep validator: reports every broken structural rule (link symmetry,
  /// single root, text-node leaf-ness, live-node accounting) with
  /// "doc:"-prefixed node paths.
  audit::Report Validate() const;

 private:
  Node* NewNode(NodeType type);
  void DestroySubtree(Node* node);
  static bool IsAttachedToDoc(const Node* node, const Node* root);

  Node* root_ = nullptr;
  std::vector<Node*> all_nodes_;  // ownership (includes detached/destroyed slots)
  uint64_t live_nodes_ = 0;
  uint64_t live_elements_ = 0;
  NodeId next_id_ = 1;
};

}  // namespace xml
}  // namespace ltree

#endif  // LTREE_XML_XML_NODE_H_
