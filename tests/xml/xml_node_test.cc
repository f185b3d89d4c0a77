#include "xml/xml_node.h"

#include <gtest/gtest.h>

namespace ltree {
namespace xml {
namespace {

TEST(DocumentTest, EmptyDocument) {
  Document doc;
  EXPECT_EQ(doc.root(), nullptr);
  EXPECT_EQ(doc.num_nodes(), 0u);
  EXPECT_TRUE(doc.Validate().ok());
  EXPECT_TRUE(doc.TagStream().empty());
}

TEST(DocumentTest, BuildSmallTree) {
  Document doc;
  Node* book = doc.CreateElement("book");
  ASSERT_TRUE(doc.SetRoot(book).ok());
  Node* chapter = doc.CreateElement("chapter");
  Node* title1 = doc.CreateElement("title");
  Node* title2 = doc.CreateElement("title");
  ASSERT_TRUE(doc.AppendChild(book, chapter).ok());
  ASSERT_TRUE(doc.AppendChild(chapter, title1).ok());
  ASSERT_TRUE(doc.AppendChild(book, title2).ok());
  EXPECT_EQ(doc.num_nodes(), 4u);
  EXPECT_EQ(doc.num_elements(), 4u);
  EXPECT_EQ(book->ChildCount(), 2u);
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentTest, TagStreamMatchesPaperFigure1) {
  // Figure 1: book(0,7), chapter(1,4), title(2,3), title(5,6): the tag
  // stream is <book><chapter><title></title></chapter><title></title></book>
  Document doc;
  Node* book = doc.CreateElement("book");
  ASSERT_TRUE(doc.SetRoot(book).ok());
  Node* chapter = doc.CreateElement("chapter");
  Node* t1 = doc.CreateElement("title");
  Node* t2 = doc.CreateElement("title");
  ASSERT_TRUE(doc.AppendChild(book, chapter).ok());
  ASSERT_TRUE(doc.AppendChild(chapter, t1).ok());
  ASSERT_TRUE(doc.AppendChild(book, t2).ok());
  auto stream = doc.TagStream();
  ASSERT_EQ(stream.size(), 8u);
  EXPECT_EQ(stream[0].kind, TagEntry::Kind::kBegin);
  EXPECT_EQ(stream[0].node, book);
  EXPECT_EQ(stream[1].node, chapter);
  EXPECT_EQ(stream[2].node, t1);
  EXPECT_EQ(stream[3].kind, TagEntry::Kind::kEnd);
  EXPECT_EQ(stream[3].node, t1);
  EXPECT_EQ(stream[4].node, chapter);
  EXPECT_EQ(stream[5].kind, TagEntry::Kind::kBegin);
  EXPECT_EQ(stream[5].node, t2);
  EXPECT_EQ(stream[7].node, book);
  EXPECT_EQ(stream[7].kind, TagEntry::Kind::kEnd);
}

TEST(DocumentTest, TextNodesInStream) {
  Document doc;
  Node* a = doc.CreateElement("a");
  ASSERT_TRUE(doc.SetRoot(a).ok());
  ASSERT_TRUE(doc.AppendChild(a, doc.CreateText("hello")).ok());
  auto stream = doc.TagStream();
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream[1].kind, TagEntry::Kind::kText);
}

TEST(DocumentTest, InsertBeforeAndAfter) {
  Document doc;
  Node* r = doc.CreateElement("r");
  ASSERT_TRUE(doc.SetRoot(r).ok());
  Node* b = doc.CreateElement("b");
  ASSERT_TRUE(doc.AppendChild(r, b).ok());
  Node* a = doc.CreateElement("a");
  ASSERT_TRUE(doc.InsertBefore(r, b, a).ok());
  Node* c = doc.CreateElement("c");
  ASSERT_TRUE(doc.InsertAfter(r, b, c).ok());
  Node* b2 = doc.CreateElement("b2");
  ASSERT_TRUE(doc.InsertAfter(r, b, b2).ok());
  // Order: a, b, b2, c
  std::vector<std::string> tags;
  for (Node* n = r->first_child; n != nullptr; n = n->next_sibling) {
    tags.push_back(n->tag);
  }
  EXPECT_EQ(tags, (std::vector<std::string>{"a", "b", "b2", "c"}));
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentTest, InsertValidation) {
  Document doc;
  Node* r = doc.CreateElement("r");
  ASSERT_TRUE(doc.SetRoot(r).ok());
  Node* child = doc.CreateElement("c");
  ASSERT_TRUE(doc.AppendChild(r, child).ok());
  // Already-attached child rejected.
  EXPECT_TRUE(doc.AppendChild(r, child).IsInvalidArgument());
  // Text nodes cannot be parents.
  Node* text = doc.CreateText("t");
  ASSERT_TRUE(doc.AppendChild(r, text).ok());
  EXPECT_TRUE(doc.AppendChild(text, doc.CreateElement("x")).IsInvalidArgument());
  // ref must be a child of parent.
  Node* other = doc.CreateElement("o");
  EXPECT_TRUE(doc.InsertBefore(r, other, doc.CreateElement("y"))
                  .IsInvalidArgument());
  // Second root rejected.
  EXPECT_TRUE(doc.SetRoot(doc.CreateElement("z")).IsFailedPrecondition());
}

TEST(DocumentTest, DetachAndReattach) {
  Document doc;
  Node* r = doc.CreateElement("r");
  ASSERT_TRUE(doc.SetRoot(r).ok());
  Node* a = doc.CreateElement("a");
  Node* b = doc.CreateElement("b");
  ASSERT_TRUE(doc.AppendChild(r, a).ok());
  ASSERT_TRUE(doc.AppendChild(r, b).ok());
  ASSERT_TRUE(doc.Detach(a).ok());
  EXPECT_EQ(r->first_child, b);
  EXPECT_EQ(a->parent, nullptr);
  ASSERT_TRUE(doc.AppendChild(b, a).ok());
  EXPECT_EQ(a->parent, b);
  EXPECT_TRUE(doc.Validate().ok());
  EXPECT_TRUE(doc.Detach(doc.CreateElement("loose")).IsFailedPrecondition());
}

TEST(DocumentTest, RemoveSubtreeUpdatesCounts) {
  Document doc;
  Node* r = doc.CreateElement("r");
  ASSERT_TRUE(doc.SetRoot(r).ok());
  Node* a = doc.CreateElement("a");
  ASSERT_TRUE(doc.AppendChild(r, a).ok());
  ASSERT_TRUE(doc.AppendChild(a, doc.CreateText("x")).ok());
  ASSERT_TRUE(doc.AppendChild(a, doc.CreateElement("b")).ok());
  EXPECT_EQ(doc.num_nodes(), 4u);
  ASSERT_TRUE(doc.Remove(a).ok());
  EXPECT_EQ(doc.num_nodes(), 1u);
  EXPECT_EQ(doc.num_elements(), 1u);
  EXPECT_EQ(r->first_child, nullptr);
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentTest, FindAttr) {
  Document doc;
  Node* e = doc.CreateElement("e");
  e->attrs.emplace_back("id", "42");
  e->attrs.emplace_back("name", "x");
  ASSERT_NE(e->FindAttr("id"), nullptr);
  EXPECT_EQ(*e->FindAttr("id"), "42");
  EXPECT_EQ(e->FindAttr("missing"), nullptr);
}

TEST(DocumentTest, VisitIsPreorder) {
  Document doc;
  Node* r = doc.CreateElement("r");
  ASSERT_TRUE(doc.SetRoot(r).ok());
  Node* a = doc.CreateElement("a");
  Node* b = doc.CreateElement("b");
  ASSERT_TRUE(doc.AppendChild(r, a).ok());
  ASSERT_TRUE(doc.AppendChild(a, b).ok());
  ASSERT_TRUE(doc.AppendChild(r, doc.CreateElement("c")).ok());
  std::vector<std::string> order;
  doc.Visit([&](const Node& n) { order.push_back(n.tag); });
  EXPECT_EQ(order, (std::vector<std::string>{"r", "a", "b", "c"}));
}

TEST(DocumentTest, MoveSemantics) {
  Document doc;
  ASSERT_TRUE(doc.SetRoot(doc.CreateElement("r")).ok());
  Document moved(std::move(doc));
  ASSERT_NE(moved.root(), nullptr);
  EXPECT_EQ(moved.root()->tag, "r");
  Document assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.root()->tag, "r");
  EXPECT_EQ(assigned.num_nodes(), 1u);
}

TEST(DocumentTest, NodeIdsAreUniqueAndStable) {
  Document doc;
  Node* r = doc.CreateElement("r");
  Node* a = doc.CreateElement("a");
  EXPECT_NE(r->id, a->id);
  ASSERT_TRUE(doc.SetRoot(r).ok());
  ASSERT_TRUE(doc.AppendChild(r, a).ok());
  const NodeId a_id = a->id;
  ASSERT_TRUE(doc.Detach(a).ok());
  ASSERT_TRUE(doc.AppendChild(r, a).ok());
  EXPECT_EQ(a->id, a_id);
}

}  // namespace
}  // namespace xml
}  // namespace ltree
