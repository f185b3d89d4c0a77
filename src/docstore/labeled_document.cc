#include "docstore/labeled_document.h"

#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "listlab/factory.h"

namespace ltree {
namespace docstore {

using listlab::ItemHandle;
using listlab::kInvalidItemHandle;

namespace {

int32_t DepthOf(const xml::Node* node) {
  int32_t depth = 0;
  for (const xml::Node* p = node->parent; p != nullptr; p = p->parent) {
    ++depth;
  }
  return depth;
}

}  // namespace

LabeledDocument::LabeledDocument(xml::Document doc,
                                 std::unique_ptr<listlab::LabelStore> store,
                                 std::string spec)
    : doc_(std::move(doc)), store_(std::move(store)), spec_(std::move(spec)) {
  store_->set_listener(this);
}

LabeledDocument::~LabeledDocument() { store_->set_listener(nullptr); }

Result<std::unique_ptr<LabeledDocument>> LabeledDocument::FromXml(
    std::string_view xml_text, const std::string& scheme_spec) {
  LTREE_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(xml_text));
  return FromDocument(std::move(doc), scheme_spec);
}

Result<std::unique_ptr<LabeledDocument>> LabeledDocument::FromDocument(
    xml::Document doc, const std::string& scheme_spec) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<listlab::LabelStore> store,
                         listlab::MakeLabelStore(scheme_spec));
  auto labeled = std::unique_ptr<LabeledDocument>(new LabeledDocument(
      std::move(doc), std::move(store), scheme_spec));
  LTREE_RETURN_IF_ERROR(labeled->BulkLoadFromDocument());
  return labeled;
}

Status LabeledDocument::BulkLoadFromDocument() {
  const std::vector<xml::TagEntry> stream = doc_.TagStream();
  std::vector<ItemHandle> handles;
  LTREE_RETURN_IF_ERROR(store_->BulkLoad(StreamCookies(stream), &handles));
  LTREE_RETURN_IF_ERROR(RegisterStream(stream, handles));
  return table_.Finalize();
}

std::vector<LeafCookie> LabeledDocument::StreamCookies(
    const std::vector<xml::TagEntry>& stream) {
  std::vector<LeafCookie> cookies;
  cookies.reserve(stream.size());
  for (const xml::TagEntry& entry : stream) {
    cookies.push_back(entry.kind == xml::TagEntry::Kind::kEnd
                          ? EndCookie(entry.node->id)
                          : BeginCookie(entry.node->id));
  }
  return cookies;
}

Status LabeledDocument::RegisterStream(const std::vector<xml::TagEntry>& stream,
                                       std::span<const ItemHandle> handles) {
  for (size_t i = 0; i < stream.size(); ++i) {
    LeafPair& pair = leaves_[stream[i].node->id];
    if (stream[i].kind == xml::TagEntry::Kind::kEnd) {
      pair.end = handles[i];
    } else {
      pair.begin = handles[i];
    }
  }
  // The document is the store's only writer, and it is between mutations.
  const listlab::LabelStore::ReadGuard guard = store_->QuiescentRead();
  for (const xml::TagEntry& entry : stream) {
    if (entry.kind != xml::TagEntry::Kind::kBegin) continue;
    const LeafPair leaves = leaves_[entry.node->id];
    LTREE_RETURN_IF_ERROR(RegisterNode(guard, entry.node, leaves));
  }
  return Status::OK();
}

Status LabeledDocument::RegisterNode(
    const listlab::LabelStore::ReadGuard& guard, const xml::Node* node,
    LeafPair leaves) {
  if (!node->IsElement()) return Status::OK();  // text: leaves only
  query::NodeRow row;
  row.id = node->id;
  row.tag = node->tag;
  LTREE_ASSIGN_OR_RETURN(const Label start,
                         store_->LabelOf(guard, leaves.begin));
  LTREE_ASSIGN_OR_RETURN(const Label end, store_->LabelOf(guard, leaves.end));
  row.region = {start, end};
  row.level = DepthOf(node);
  row.parent_id = node->parent == nullptr ? 0 : node->parent->id;
  row.is_text = false;
  return table_.Insert(std::move(row));
}

void LabeledDocument::OnRelabel(LeafCookie cookie, Label old_label,
                                Label new_label) {
  (void)old_label;
  const xml::NodeId id = cookie >> 1;
  const bool is_end = (cookie & 1) != 0;
  // Text nodes and not-yet-registered fresh nodes have no table row; ignore
  // the NotFound.
  Status st = is_end ? table_.UpdateEnd(id, new_label)
                     : table_.UpdateStart(id, new_label);
  (void)st;
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

Result<LabeledDocument::Anchor> LabeledDocument::ResolveAnchor(
    xml::NodeId parent_id, xml::NodeId after_sibling) const {
  auto pit = leaves_.find(parent_id);
  if (pit == leaves_.end() || pit->second.end == kInvalidItemHandle) {
    return Status::NotFound("parent is not a live element");
  }
  xml::Node* parent = doc_.FindById(parent_id);
  LTREE_CHECK(parent != nullptr);
  if (after_sibling == 0) {
    // Last child: right before the parent's end tag.
    return Anchor{parent, nullptr, listlab::Where::kBefore, pit->second.end};
  }
  for (xml::Node* c = parent->first_child; c != nullptr;
       c = c->next_sibling) {
    if (c->id != after_sibling) continue;
    // Right after the sibling's last leaf (its begin leaf if it is text).
    const LeafPair& sib = leaves_.at(c->id);
    const ItemHandle last = sib.end != kInvalidItemHandle ? sib.end : sib.begin;
    return Anchor{parent, c, listlab::Where::kAfter, last};
  }
  return Status::NotFound("after_sibling is not a child of parent");
}

Result<xml::NodeId> LabeledDocument::InsertSubtree(const Anchor& anchor,
                                                   xml::Node* fresh) {
  Status attach = anchor.sibling == nullptr
                      ? doc_.AppendChild(anchor.parent, fresh)
                      : doc_.InsertAfter(anchor.parent, anchor.sibling, fresh);
  LTREE_RETURN_IF_ERROR(attach);
  // The subtree's tag stream enters the label store as one batch (Section
  // 4.1); a text node is a batch of one.
  const std::vector<xml::TagEntry> stream = xml::Document::TagStream(fresh);
  const std::vector<LeafCookie> cookies = StreamCookies(stream);
  std::vector<ItemHandle> handles;
  auto first = store_->Insert(anchor.where, anchor.pos, cookies, &handles);
  if (!first.ok()) {
    LTREE_CHECK_OK(doc_.Remove(fresh));
    return first.status();
  }
  LTREE_RETURN_IF_ERROR(RegisterStream(stream, handles));
  return fresh->id;
}

Result<xml::NodeId> LabeledDocument::InsertElement(xml::NodeId parent_id,
                                                   xml::NodeId after_sibling,
                                                   std::string tag) {
  LTREE_ASSIGN_OR_RETURN(const Anchor anchor,
                         ResolveAnchor(parent_id, after_sibling));
  return InsertSubtree(anchor, doc_.CreateElement(std::move(tag)));
}

Result<xml::NodeId> LabeledDocument::InsertText(xml::NodeId parent_id,
                                                xml::NodeId after_sibling,
                                                std::string text) {
  LTREE_ASSIGN_OR_RETURN(const Anchor anchor,
                         ResolveAnchor(parent_id, after_sibling));
  return InsertSubtree(anchor, doc_.CreateText(std::move(text)));
}

Result<xml::NodeId> LabeledDocument::InsertFragment(xml::NodeId parent_id,
                                                    xml::NodeId after_sibling,
                                                    std::string_view fragment) {
  LTREE_ASSIGN_OR_RETURN(const Anchor anchor,
                         ResolveAnchor(parent_id, after_sibling));
  LTREE_ASSIGN_OR_RETURN(xml::Document frag, xml::Parse(fragment));
  return InsertSubtree(anchor, CopySubtree(frag.root(), nullptr));
}

xml::Node* LabeledDocument::CopySubtree(const xml::Node* src,
                                        xml::Node* parent) {
  xml::Node* clone = src->IsElement() ? doc_.CreateElement(src->tag)
                                      : doc_.CreateText(src->text);
  clone->attrs = src->attrs;
  if (parent != nullptr) {
    LTREE_CHECK_OK(doc_.AppendChild(parent, clone));
  }
  for (const xml::Node* c = src->first_child; c != nullptr;
       c = c->next_sibling) {
    CopySubtree(c, clone);
  }
  return clone;
}

Status LabeledDocument::DeleteSubtree(xml::NodeId node_id) {
  auto it = leaves_.find(node_id);
  if (it == leaves_.end()) return Status::NotFound("unknown node id");
  xml::Node* node = doc_.FindById(node_id);
  if (node == nullptr) return Status::NotFound("node not attached");

  // Collect the subtree in document order.
  std::vector<const xml::Node*> subtree;
  std::vector<const xml::Node*> stack{node};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    subtree.push_back(n);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  for (const xml::Node* n : subtree) {
    const LeafPair pair = leaves_.at(n->id);
    LTREE_RETURN_IF_ERROR(store_->Erase(pair.begin));
    if (pair.end != kInvalidItemHandle) {
      LTREE_RETURN_IF_ERROR(store_->Erase(pair.end));
    }
    if (n->IsElement()) {
      LTREE_RETURN_IF_ERROR(table_.Erase(n->id));
    }
    leaves_.erase(n->id);
  }
  return doc_.Remove(node);
}

// ---------------------------------------------------------------------------
// Queries / checks
// ---------------------------------------------------------------------------

Result<query::Region> LabeledDocument::GetRegion(xml::NodeId node_id) const {
  auto it = leaves_.find(node_id);
  if (it == leaves_.end()) return Status::NotFound("unknown node id");
  const listlab::LabelStore::ReadGuard guard = store_->QuiescentRead();
  LTREE_ASSIGN_OR_RETURN(const Label start,
                         store_->LabelOf(guard, it->second.begin));
  Label end = start;
  if (it->second.end != kInvalidItemHandle) {
    LTREE_ASSIGN_OR_RETURN(end, store_->LabelOf(guard, it->second.end));
  }
  return query::Region{start, end};
}

Result<bool> LabeledDocument::IsAncestor(xml::NodeId ancestor,
                                         xml::NodeId descendant) const {
  LTREE_ASSIGN_OR_RETURN(query::Region a, GetRegion(ancestor));
  LTREE_ASSIGN_OR_RETURN(query::Region d, GetRegion(descendant));
  return a.Contains(d);
}

Status LabeledDocument::CheckConsistency() const {
  LTREE_RETURN_IF_ERROR(store_->Validate().ToStatus());
  LTREE_RETURN_IF_ERROR(table_.Validate().ToStatus());
  LTREE_RETURN_IF_ERROR(doc_.Validate().ToStatus());
  // The labels read through the handles must be strictly increasing along
  // the current tag stream, and table regions must match them.
  const listlab::LabelStore::ReadGuard guard = store_->QuiescentRead();
  Label prev = 0;
  bool first = true;
  for (const xml::TagEntry& entry : doc_.TagStream()) {
    auto it = leaves_.find(entry.node->id);
    if (it == leaves_.end()) {
      return Status::Corruption("attached node missing from the leaf map");
    }
    const ItemHandle h = entry.kind == xml::TagEntry::Kind::kEnd
                             ? it->second.end
                             : it->second.begin;
    if (h == kInvalidItemHandle) {
      return Status::Corruption("missing leaf handle");
    }
    auto label = store_->LabelOf(guard, h);
    if (!label.ok()) {
      return Status::Corruption("leaf handle no longer resolves: " +
                                label.status().ToString());
    }
    if (!first && *label <= prev) {
      return Status::Corruption("tag-stream labels not increasing");
    }
    prev = *label;
    first = false;
    if (entry.kind == xml::TagEntry::Kind::kBegin &&
        entry.node->IsElement()) {
      LTREE_ASSIGN_OR_RETURN(const query::NodeRow* row,
                             table_.Find(entry.node->id));
      LTREE_ASSIGN_OR_RETURN(const Label start,
                             store_->LabelOf(guard, it->second.begin));
      LTREE_ASSIGN_OR_RETURN(const Label end,
                             store_->LabelOf(guard, it->second.end));
      if (row->region.start != start || row->region.end != end) {
        return Status::Corruption(StrFormat(
            "table region stale for node %llu",
            static_cast<unsigned long long>(entry.node->id)));
      }
    }
  }
  return Status::OK();
}

}  // namespace docstore
}  // namespace ltree
