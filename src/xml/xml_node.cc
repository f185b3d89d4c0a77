#include "xml/xml_node.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace ltree {
namespace xml {

const std::string* Node::FindAttr(std::string_view name) const {
  for (const auto& [k, v] : attrs) {
    if (k == name) return &v;
  }
  return nullptr;
}

size_t Node::ChildCount() const {
  size_t n = 0;
  for (const Node* c = first_child; c != nullptr; c = c->next_sibling) ++n;
  return n;
}

Document::Document() = default;

Document::~Document() {
  for (Node* n : all_nodes_) delete n;
}

Document::Document(Document&& other) noexcept
    : root_(other.root_),
      all_nodes_(std::move(other.all_nodes_)),
      live_nodes_(other.live_nodes_),
      live_elements_(other.live_elements_),
      next_id_(other.next_id_) {
  other.root_ = nullptr;
  other.all_nodes_.clear();
  other.live_nodes_ = other.live_elements_ = 0;
}

Document& Document::operator=(Document&& other) noexcept {
  if (this != &other) {
    for (Node* n : all_nodes_) delete n;
    root_ = other.root_;
    all_nodes_ = std::move(other.all_nodes_);
    live_nodes_ = other.live_nodes_;
    live_elements_ = other.live_elements_;
    next_id_ = other.next_id_;
    other.root_ = nullptr;
    other.all_nodes_.clear();
    other.live_nodes_ = other.live_elements_ = 0;
  }
  return *this;
}

Node* Document::NewNode(NodeType type) {
  Node* n = new Node;
  n->type = type;
  n->id = next_id_++;
  all_nodes_.push_back(n);
  ++live_nodes_;
  if (type == NodeType::kElement) ++live_elements_;
  return n;
}

Node* Document::CreateElement(std::string tag) {
  Node* n = NewNode(NodeType::kElement);
  n->tag = std::move(tag);
  return n;
}

Node* Document::CreateText(std::string text) {
  Node* n = NewNode(NodeType::kText);
  n->text = std::move(text);
  return n;
}

Status Document::SetRoot(Node* node) {
  if (root_ != nullptr) {
    return Status::FailedPrecondition("document already has a root");
  }
  if (node == nullptr || !node->IsElement()) {
    return Status::InvalidArgument("root must be an element");
  }
  if (node->parent != nullptr) {
    return Status::InvalidArgument("root must be detached");
  }
  root_ = node;
  return Status::OK();
}

namespace {
Status CheckDetached(const Node* child) {
  if (child == nullptr) return Status::InvalidArgument("null child");
  if (child->parent != nullptr || child->prev_sibling != nullptr ||
      child->next_sibling != nullptr) {
    return Status::InvalidArgument("child must be detached");
  }
  return Status::OK();
}
}  // namespace

Status Document::AppendChild(Node* parent, Node* child) {
  if (parent == nullptr || !parent->IsElement()) {
    return Status::InvalidArgument("parent must be an element");
  }
  LTREE_RETURN_IF_ERROR(CheckDetached(child));
  if (child == root_) return Status::InvalidArgument("cannot attach the root");
  child->parent = parent;
  child->prev_sibling = parent->last_child;
  if (parent->last_child != nullptr) {
    parent->last_child->next_sibling = child;
  } else {
    parent->first_child = child;
  }
  parent->last_child = child;
  return Status::OK();
}

Status Document::InsertBefore(Node* parent, Node* ref, Node* child) {
  if (parent == nullptr || !parent->IsElement()) {
    return Status::InvalidArgument("parent must be an element");
  }
  if (ref == nullptr || ref->parent != parent) {
    return Status::InvalidArgument("ref must be a child of parent");
  }
  LTREE_RETURN_IF_ERROR(CheckDetached(child));
  child->parent = parent;
  child->next_sibling = ref;
  child->prev_sibling = ref->prev_sibling;
  if (ref->prev_sibling != nullptr) {
    ref->prev_sibling->next_sibling = child;
  } else {
    parent->first_child = child;
  }
  ref->prev_sibling = child;
  return Status::OK();
}

Status Document::InsertAfter(Node* parent, Node* ref, Node* child) {
  if (ref == nullptr || ref->parent != parent) {
    return Status::InvalidArgument("ref must be a child of parent");
  }
  if (ref->next_sibling == nullptr) return AppendChild(parent, child);
  return InsertBefore(parent, ref->next_sibling, child);
}

Status Document::Detach(Node* node) {
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (node == root_) {
    root_ = nullptr;
    return Status::OK();
  }
  if (node->parent == nullptr) {
    return Status::FailedPrecondition("node already detached");
  }
  Node* parent = node->parent;
  if (node->prev_sibling != nullptr) {
    node->prev_sibling->next_sibling = node->next_sibling;
  } else {
    parent->first_child = node->next_sibling;
  }
  if (node->next_sibling != nullptr) {
    node->next_sibling->prev_sibling = node->prev_sibling;
  } else {
    parent->last_child = node->prev_sibling;
  }
  node->parent = nullptr;
  node->prev_sibling = node->next_sibling = nullptr;
  return Status::OK();
}

void Document::DestroySubtree(Node* node) {
  Node* child = node->first_child;
  while (child != nullptr) {
    Node* next = child->next_sibling;
    DestroySubtree(child);
    child = next;
  }
  --live_nodes_;
  if (node->IsElement()) --live_elements_;
  // Ownership slot: ids are 1-based indexes into all_nodes_.
  all_nodes_[node->id - 1] = nullptr;
  delete node;
}

Status Document::Remove(Node* node) {
  if (node == nullptr) return Status::InvalidArgument("null node");
  if (node->parent != nullptr || node == root_) {
    LTREE_RETURN_IF_ERROR(Detach(node));
  }
  DestroySubtree(node);
  return Status::OK();
}

Node* Document::FindById(NodeId id) const {
  if (id == 0 || id >= next_id_) return nullptr;
  return all_nodes_[id - 1];
}

void Document::Visit(const std::function<void(const Node&)>& fn) const {
  if (root_ == nullptr) return;
  std::vector<const Node*> stack{root_};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    fn(*n);
    // Push children in reverse so traversal is document order.
    std::vector<const Node*> kids;
    for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
}

namespace {
void StreamNode(const Node* n, std::vector<TagEntry>* out) {
  if (n->IsText()) {
    out->push_back({TagEntry::Kind::kText, n});
    return;
  }
  out->push_back({TagEntry::Kind::kBegin, n});
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    StreamNode(c, out);
  }
  out->push_back({TagEntry::Kind::kEnd, n});
}
}  // namespace

std::vector<TagEntry> Document::TagStream(const Node* subtree) {
  std::vector<TagEntry> out;
  if (subtree != nullptr) StreamNode(subtree, &out);
  return out;
}

audit::Report Document::Validate() const {
  audit::Report report;
  uint64_t visited = 0;
  if (root_ != nullptr) {
    if (root_->parent != nullptr) {
      report.Add("doc:/", "root-parent", "root has a parent");
    }
    struct Frame {
      const Node* node;
      std::string path;
    };
    std::vector<Frame> stack{{root_, "doc:/"}};
    while (!stack.empty()) {
      const Frame frame = stack.back();
      const Node* n = frame.node;
      stack.pop_back();
      ++visited;
      if (n->IsText() && n->first_child != nullptr) {
        report.Add(frame.path, "text-childless", "text node with children");
        continue;
      }
      const Node* prev = nullptr;
      uint32_t idx = 0;
      bool links_ok = true;
      for (const Node* c = n->first_child; c != nullptr;
           c = c->next_sibling, ++idx) {
        const std::string child_path =
            (frame.path.back() == '/' ? frame.path : frame.path + "/") +
            std::to_string(idx);
        if (c->parent != n) {
          report.Add(child_path, "parent-link",
                     "child's parent pointer does not point at the actual "
                     "parent");
          links_ok = false;
          break;
        }
        if (c->prev_sibling != prev) {
          report.Add(child_path, "sibling-link",
                     "prev_sibling does not point at the previous child");
          links_ok = false;
          break;
        }
        prev = c;
        stack.push_back({c, child_path});
      }
      if (links_ok && n->last_child != prev) {
        report.Add(frame.path, "sibling-link",
                   "last_child does not point at the final child");
      }
    }
  }
  if (visited > live_nodes_) {
    report.Add("doc:/", "live-count",
               StrFormat("%llu attached nodes exceed %llu live nodes",
                         static_cast<unsigned long long>(visited),
                         static_cast<unsigned long long>(live_nodes_)));
  }
  return report;
}

}  // namespace xml
}  // namespace ltree
