// Randomized edit-script equivalence suite (the acceptance gate for the
// scheme-pluggable pipeline): drive LabeledDocument over every labeling
// scheme spec with a random stream of fragment/element/text insertions and
// subtree deletions, and after every step assert
//   * label-plan query results == naive DOM ground truth
//     (EvaluateWithLabels vs. EvaluateOnDocument), and
//   * labels are order-preserving along the tag stream.
// If any scheme's relabel notifications, batch path or erase semantics
// desynced the node table, these checks catch it at the op that broke.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "docstore/labeled_document.h"
#include "listlab/factory.h"
#include "query/path_query.h"
#include "testing/label_scan.h"
#include "workload/xml_generator.h"

namespace ltree {
namespace docstore {
namespace {

class SchemeEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeEquivalenceTest, RandomEditScriptMatchesDomGroundTruth) {
  const std::string spec = GetParam();
  auto store = LabeledDocument::FromXml(workload::GenerateCatalogXml(8, 2, 42),
                                        spec)
                   .MoveValueUnsafe();
  ASSERT_EQ(store->scheme_spec(), spec);

  const char* paths[] = {"//book//title", "//chapter/para", "/site//*",
                         "//edit", "/site/books/book"};
  auto verify = [&](int op) {
    // Query equivalence against the DOM ground truth.
    for (const char* path : paths) {
      auto q = query::PathQuery::Parse(path).ValueOrDie();
      std::vector<xml::NodeId> label_ids;
      for (const auto* row : query::EvaluateWithLabels(q, store->table())) {
        label_ids.push_back(row->id);
      }
      const auto dom_ids = query::EvaluateOnDocument(q, store->document());
      ASSERT_EQ(label_ids, dom_ids)
          << spec << " diverged on " << path << " at op " << op;
    }
    // Order preservation: live labels strictly increase in list order.
    const auto labels = listlab::ScanLabels(store->label_store());
    for (size_t i = 1; i < labels.size(); ++i) {
      ASSERT_LT(labels[i - 1], labels[i])
          << spec << " labels out of order at op " << op;
    }
  };
  verify(-1);

  auto books_q = query::PathQuery::Parse("/site/books").ValueOrDie();
  const xml::NodeId root_id = store->document().root()->id;
  const xml::NodeId books_id =
      query::EvaluateWithLabels(books_q, store->table())[0]->id;

  Rng rng(std::hash<std::string>{}(spec) & 0xffffff);
  auto random_element = [&]() -> xml::NodeId {
    auto rows = store->table().AllElements();
    const auto* row = rows[rng.Uniform(rows.size())];
    return row->id;
  };

  for (int op = 0; op < 60; ++op) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 3) {
      ASSERT_TRUE(store
                      ->InsertFragment(
                          books_id, 0,
                          "<book><title>t</title><chapter><para>p</para>"
                          "</chapter></book>")
                      .ok())
          << spec << " op " << op;
    } else if (dice < 6) {
      // New element under a random live element (possibly a nested edit).
      auto fresh = store->InsertElement(random_element(), 0, "edit");
      ASSERT_TRUE(fresh.ok()) << spec << " op " << op;
    } else if (dice < 8) {
      auto text = store->InsertText(random_element(), 0, "note");
      ASSERT_TRUE(text.ok()) << spec << " op " << op;
    } else {
      // Delete a random subtree, but keep the skeleton alive.
      const xml::NodeId victim = random_element();
      if (victim != root_id && victim != books_id) {
        ASSERT_TRUE(store->DeleteSubtree(victim).ok())
            << spec << " op " << op;
      }
    }
    verify(op);
    if (op % 15 == 14) {
      ASSERT_TRUE(store->CheckConsistency().ok()) << spec << " op " << op;
    }
  }
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// Paper-fidelity sweep: the materialized and virtual L-Tree run the same
// maintenance algorithm (Section 4.2), so an identical edit script through
// the whole document pipeline must produce identical labels AND identical
// maintenance statistics — relabels and rebalances are the paper's cost
// currency, and the arena refactors must never change them. Only the
// allocator-traffic counters may differ in value (each scheme pools its
// own node type: L-Tree nodes vs counted-B+-tree nodes), but BOTH sides
// must report real nonzero traffic — the virtual store silently reporting
// zeros was exactly the accounting bug this pins against regressing.
TEST(SchemeStatsFidelityTest, MaterializedAndVirtualAgreeOnCostStats) {
  const std::string xml = workload::GenerateCatalogXml(8, 2, 42);
  auto mat = LabeledDocument::FromXml(xml, "ltree:16:4").MoveValueUnsafe();
  auto virt = LabeledDocument::FromXml(xml, "virtual:16:4").MoveValueUnsafe();

  auto run_script = [](LabeledDocument& store) {
    auto books_q = query::PathQuery::Parse("/site/books").ValueOrDie();
    const xml::NodeId books_id =
        query::EvaluateWithLabels(books_q, store.table())[0]->id;
    Rng rng(4242);  // same stream for both schemes
    for (int op = 0; op < 40; ++op) {
      auto rows = store.table().AllElements();
      const xml::NodeId target = rows[rng.Uniform(rows.size())]->id;
      const uint64_t dice = rng.Uniform(3);
      if (dice == 0) {
        ASSERT_TRUE(store
                        .InsertFragment(books_id, 0,
                                        "<book><title>t</title></book>")
                        .ok());
      } else if (dice == 1) {
        ASSERT_TRUE(store.InsertElement(target, 0, "edit").ok());
      } else {
        ASSERT_TRUE(store.InsertText(target, 0, "note").ok());
      }
    }
  };
  run_script(*mat);
  run_script(*virt);

  EXPECT_EQ(listlab::ScanLabels(mat->label_store()),
            listlab::ScanLabels(virt->label_store()));
  const MaintStats ms = mat->label_store().stats();
  const MaintStats vs = virt->label_store().stats();
  EXPECT_EQ(ms.inserts, vs.inserts);
  EXPECT_EQ(ms.items_relabeled, vs.items_relabeled);
  EXPECT_EQ(ms.rebalances, vs.rebalances);
  // The plan/apply pipeline runs the same coalescing decision on both
  // representations: one relabel pass per operation, identical counts.
  EXPECT_EQ(ms.relabel_passes, vs.relabel_passes);
  EXPECT_EQ(ms.coalesced_regions, vs.coalesced_regions);
  EXPECT_GT(ms.relabel_passes, 0u);
  // Arena counters: both stores run over pooled nodes, so after inserts
  // both must report real allocator traffic (never silent zeros again).
  EXPECT_GT(ms.nodes_allocated, 0u);
  EXPECT_GT(vs.nodes_allocated, 0u);
  // The edit script splits virtual intervals, and a virtual split rewrites
  // B+-tree entries (Delete frees nodes via merges, Insert re-splits), so
  // recycling must have both released and reused nodes.
  EXPECT_GT(vs.nodes_released, 0u);
  EXPECT_GT(vs.nodes_reused, 0u);
  ASSERT_TRUE(mat->CheckConsistency().ok());
  ASSERT_TRUE(virt->CheckConsistency().ok());
}

// ---------------------------------------------------------------------------
// Batch edge cases, uniformly across every scheme family: the LabelStore
// batch contract (empty batches, head insertion, batches into an empty
// store, and the all-or-nothing failure guarantee) must hold whether the
// scheme splices the batch with one rebalance (the L-Tree variants, via
// plan/apply) or places it item by item (the linked-list schemes).
// ---------------------------------------------------------------------------

class BatchEdgeCaseTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchEdgeCaseTest, EmptyBatchIsNoopEverywhere) {
  auto store = listlab::MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<listlab::ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(8, &handles).ok());
  store->ResetStats();
  const auto labels_before = listlab::ScanLabels(*store);
  EXPECT_TRUE(store->InsertBatchAfter(handles[3], {}).ok());
  EXPECT_TRUE(store->InsertBatchBefore(handles[0], {}).ok());
  EXPECT_TRUE(store->PushBackBatch({}).ok());
  EXPECT_EQ(store->size(), 8u);
  EXPECT_EQ(listlab::ScanLabels(*store), labels_before);
  EXPECT_EQ(store->stats().inserts, 0u);
  EXPECT_EQ(store->stats().relabel_passes, 0u);
}

TEST_P(BatchEdgeCaseTest, InsertBatchBeforeHead) {
  auto store = listlab::MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<listlab::ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(6, &handles).ok());
  const std::vector<LeafCookie> batch{100, 101, 102};
  std::vector<listlab::ItemHandle> fresh;
  ASSERT_TRUE(store->InsertBatchBefore(handles[0], batch, &fresh).ok());
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_EQ(store->size(), 9u);
  // The batch lands, in order, strictly before the old head.
  const listlab::LabelStore::ReadGuard guard = store->QuiescentRead();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(*store->CookieOf(guard, fresh[i]), batch[i]);
  }
  EXPECT_LT(*store->LabelOf(guard, fresh[0]), *store->LabelOf(guard, fresh[1]));
  EXPECT_LT(*store->LabelOf(guard, fresh[1]), *store->LabelOf(guard, fresh[2]));
  EXPECT_LT(*store->LabelOf(guard, fresh[2]),
            *store->LabelOf(guard, handles[0]));
  EXPECT_TRUE(store->Validate().ok());
}

TEST_P(BatchEdgeCaseTest, PushBackBatchOnEmptyStore) {
  auto store = listlab::MakeLabelStore(GetParam()).ValueOrDie();
  const std::vector<LeafCookie> batch{7, 8, 9, 10};
  std::vector<listlab::ItemHandle> fresh;
  ASSERT_TRUE(store->PushBackBatch(batch, &fresh).ok());
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_EQ(store->size(), 4u);
  const auto labels = listlab::ScanLabels(*store);
  ASSERT_EQ(labels.size(), 4u);
  for (size_t i = 1; i < labels.size(); ++i) {
    EXPECT_LT(labels[i - 1], labels[i]);
  }
  const listlab::LabelStore::ReadGuard guard = store->QuiescentRead();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*store->CookieOf(guard, fresh[i]), batch[i]);
  }
  EXPECT_TRUE(store->Validate().ok());
}

TEST_P(BatchEdgeCaseTest, FailedBatchLeavesStoreUntouched) {
  // All-or-nothing: a batch that fails (here: against an erased anchor,
  // which every scheme must reject) leaves size, labels and stats alone.
  auto store = listlab::MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<listlab::ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(8, &handles).ok());
  ASSERT_TRUE(store->Erase(handles[4]).ok());
  store->ResetStats();
  const auto labels_before = listlab::ScanLabels(*store);
  const std::vector<LeafCookie> batch{200, 201};
  Status st = store->InsertBatchAfter(handles[4], batch);
  EXPECT_FALSE(st.ok()) << GetParam();
  st = store->InsertBatchBefore(handles[4], batch);
  EXPECT_FALSE(st.ok()) << GetParam();
  EXPECT_EQ(store->size(), 7u);
  EXPECT_EQ(listlab::ScanLabels(*store), labels_before);
  EXPECT_EQ(store->stats().inserts, 0u);
  EXPECT_TRUE(store->Validate().ok());
}

// Mid-batch capacity failure: only the L-Tree variants have a bounded
// label space to exhaust; the batch must fail atomically, the store must
// stay fully usable, and a smaller insert must still succeed.
class BatchCapacityRollbackTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchCapacityRollbackTest, CapacityFailureIsAtomic) {
  // f=4096, s=2048: the (f+1)-ary label space caps the height at 5, so the
  // leaf budget is 2048 * 2^5 = 65536.
  auto store = listlab::MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<LeafCookie> load(60000);
  for (uint64_t i = 0; i < load.size(); ++i) load[i] = i;
  std::vector<listlab::ItemHandle> handles;
  // PushBackBatch, not BulkLoad: a complete d-ary bulk build of 60000
  // leaves needs height 16, beyond this parameterization's label space;
  // the incremental path packs up to f children per node.
  ASSERT_TRUE(store->PushBackBatch(load, &handles).ok());
  store->ResetStats();

  std::vector<LeafCookie> batch(10000);
  for (uint64_t i = 0; i < batch.size(); ++i) batch[i] = 100000 + i;
  std::vector<listlab::ItemHandle> fresh;
  Status st = store->InsertBatchAfter(handles[30000], batch, &fresh);
  EXPECT_TRUE(st.IsCapacityExceeded()) << st.ToString();
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(store->size(), 60000u);
  EXPECT_EQ(store->stats().inserts, 0u);
  EXPECT_TRUE(store->Validate().ok());
  // The store is not poisoned: smaller batches still fit.
  const std::vector<LeafCookie> small{1, 2, 3};
  ASSERT_TRUE(store->InsertBatchAfter(handles[30000], small).ok());
  EXPECT_EQ(store->size(), 60003u);
  EXPECT_TRUE(store->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Schemes, BatchEdgeCaseTest,
                         ::testing::Values("ltree:16:4", "ltree:4:2:purge",
                                           "virtual:16:4", "sequential",
                                           "gap:16", "bender"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(LTreeSchemes, BatchCapacityRollbackTest,
                         ::testing::Values("ltree:4096:2048",
                                           "virtual:4096:2048"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

// The full parse -> edit -> query pipeline must run under (at least) these
// five scheme families — the acceptance bar for the pluggable LabelStore.
INSTANTIATE_TEST_SUITE_P(Schemes, SchemeEquivalenceTest,
                         ::testing::Values("ltree:16:4", "ltree:4:2:purge",
                                           "virtual:16:4", "virtual:4:2",
                                           "sequential", "gap:64", "gap:16",
                                           "bender", "bender:0.75"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace docstore
}  // namespace ltree
