// Catalog editor: a realistic editing session on a book-site document.
//
// Simulates the workload the paper's introduction motivates: an XML
// database ingesting subtree insertions (new books arrive as fragments,
// Section 4.1 batches), point edits and deletions, while ancestor-
// descendant queries keep running against the stored labels with no
// re-indexing.
//
// Build & run:   ./build/examples/catalog_editor [books] [edits]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "docstore/labeled_document.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"

using namespace ltree;

int main(int argc, char** argv) {
  const uint64_t books = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  const int edits = argc > 2 ? std::atoi(argv[2]) : 500;

  auto store = docstore::LabeledDocument::FromDocument(
                   workload::GenerateCatalog(books, 4, /*seed=*/2026),
                   "ltree:16:4:purge")
                   .ValueOrDie();
  std::printf("catalog: %llu elements, scheme %s, %u-bit labels\n",
              (unsigned long long)store->table().size(),
              store->label_store().name().c_str(),
              store->label_store().label_bits());

  // Locate the <books> container.
  auto books_q = query::PathQuery::Parse("/site/books").ValueOrDie();
  auto container = query::EvaluateWithLabels(books_q, store->table());
  if (container.size() != 1) {
    std::fprintf(stderr, "unexpected catalog shape\n");
    return 1;
  }
  const xml::NodeId books_id = container[0]->id;

  auto titles_q = query::PathQuery::Parse("//book//title").ValueOrDie();
  Rng rng(7);
  Timer timer;
  uint64_t inserted_books = 0;
  uint64_t deleted_books = 0;

  for (int i = 0; i < edits; ++i) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 6) {
      // A new book arrives as a whole fragment (one Section 4.1 batch).
      const std::string frag = StrFormat(
          "<book id=\"new%d\"><title>Fresh %d</title>"
          "<chapter><title>c</title><para>p</para></chapter></book>",
          i, i);
      auto id = store->InsertFragment(books_id, 0, frag);
      if (!id.ok()) {
        std::fprintf(stderr, "insert failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      ++inserted_books;
    } else if (dice < 8) {
      // Random existing book gets a new chapter.
      auto all_books =
          store->table().ByTag("book");
      if (!all_books.empty()) {
        const auto* victim = all_books[rng.Uniform(all_books.size())];
        auto ch = store->InsertElement(victim->id, 0, "chapter");
        if (ch.ok()) {
          (void)store->InsertElement(*ch, 0, "title");
        }
      }
    } else {
      // Delete a random book subtree (tombstones only, Section 2.3).
      auto all_books = store->table().ByTag("book");
      if (all_books.size() > 2) {
        const auto* victim = all_books[rng.Uniform(all_books.size())];
        if (store->DeleteSubtree(victim->id).ok()) ++deleted_books;
      }
    }

    if (i % 100 == 99) {
      // Queries run against the live labels: no rebuild between edits.
      auto rows = query::EvaluateWithLabels(titles_q, store->table());
      std::printf(
          "  edit %4d: //book//title -> %5zu titles  (labels "
          "relabeled so far: %llu)\n",
          i + 1, rows.size(),
          (unsigned long long)store->label_store().stats().items_relabeled);
    }
  }

  const double secs = timer.ElapsedSeconds();
  const MaintStats st = store->label_store().stats();
  std::printf("\n%d edits in %.3fs (%.1f us/edit)\n", edits, secs,
              1e6 * secs / edits);
  std::printf("books inserted=%llu deleted=%llu\n",
              (unsigned long long)inserted_books,
              (unsigned long long)deleted_books);
  std::printf("scheme: %s\n", st.ToString().c_str());

  auto check = store->CheckConsistency();
  std::printf("consistency: %s\n", check.ToString().c_str());
  return check.ok() ? 0 : 1;
}
