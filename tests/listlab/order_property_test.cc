// Cross-scheme property tests: every LabelStore must keep label order
// equal to list order under arbitrary op streams, and the relative cost
// ordering the paper claims (L-Tree ~ polylog << sequential) must hold.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "listlab/factory.h"
#include "testing/label_scan.h"

namespace ltree {
namespace listlab {
namespace {

class OrderPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OrderPropertyTest, LabelsMatchListOrderUnderRandomOps) {
  auto maintainer = MakeLabelStore(GetParam()).ValueOrDie();
  std::vector<ItemHandle> order;  // reference list order
  ASSERT_TRUE(maintainer->BulkLoad(8, &order).ok());

  Rng rng(std::hash<std::string>{}(GetParam()) & 0xffff);
  for (int op = 0; op < 800; ++op) {
    const uint64_t action = rng.Uniform(10);
    if (action < 6 || order.size() < 4) {
      const size_t r = static_cast<size_t>(rng.Uniform(order.size()));
      auto id = maintainer->InsertAfter(order[r],
                                        1000 + static_cast<LeafCookie>(op));
      ASSERT_TRUE(id.ok()) << "op " << op;
      order.insert(order.begin() + static_cast<long>(r) + 1, *id);
    } else if (action < 7) {
      const size_t r = static_cast<size_t>(rng.Uniform(order.size()));
      auto id = maintainer->InsertBefore(order[r],
                                         1000 + static_cast<LeafCookie>(op));
      ASSERT_TRUE(id.ok()) << "op " << op;
      order.insert(order.begin() + static_cast<long>(r), *id);
    } else if (action < 8) {
      auto id = rng.Bernoulli(0.5)
                    ? maintainer->PushBack(1000 + static_cast<LeafCookie>(op))
                    : maintainer->InsertBefore(
                          order.front(), 1000 + static_cast<LeafCookie>(op));
      ASSERT_TRUE(id.ok()) << "op " << op;
      if (rng.Bernoulli(0.5)) {
        // We can't know which end without querying; re-derive below.
      }
      // Maintain reference: PushBack appends, InsertBefore(front) prepends.
      // Determine which by comparing labels against current extremes.
      // (Simpler: just re-check via labels at verification time; here we
      // need order[], so place by label.)
      const LabelStore::ReadGuard guard = maintainer->QuiescentRead();
      Label l = *maintainer->LabelOf(guard, *id);
      bool placed = false;
      if (!order.empty()) {
        Label first = *maintainer->LabelOf(guard, order.front());
        Label last = *maintainer->LabelOf(guard, order.back());
        if (l < first) {
          order.insert(order.begin(), *id);
          placed = true;
        } else if (l > last) {
          order.push_back(*id);
          placed = true;
        }
      }
      ASSERT_TRUE(placed || order.empty()) << "op " << op;
      if (!placed) order.push_back(*id);
    } else {
      if (order.size() > 4) {
        const size_t r = static_cast<size_t>(rng.Uniform(order.size()));
        ASSERT_TRUE(maintainer->Erase(order[r]).ok()) << "op " << op;
        order.erase(order.begin() + static_cast<long>(r));
      }
    }

    if (op % 100 == 0) {
      ASSERT_TRUE(maintainer->Validate().ok()) << "op " << op;
    }
  }

  // Final verification: labels strictly increase along the reference order.
  ASSERT_EQ(maintainer->size(), order.size());
  const LabelStore::ReadGuard guard = maintainer->QuiescentRead();
  Label prev = 0;
  bool first = true;
  for (ItemHandle id : order) {
    auto l = maintainer->LabelOf(guard, id);
    ASSERT_TRUE(l.ok());
    if (!first) {
      ASSERT_GT(*l, prev);
    }
    prev = *l;
    first = false;
  }
  // The scan's label column agrees with per-item queries.
  auto labels = ScanLabels(*maintainer);
  ASSERT_EQ(labels.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(labels[i], *maintainer->LabelOf(guard, order[i]));
  }
  ASSERT_TRUE(maintainer->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, OrderPropertyTest,
    ::testing::Values("sequential", "gap:16", "gap:256", "bender",
                      "bender:0.75", "ltree:4:2", "ltree:16:4", "ltree:32:2",
                      "virtual:4:2", "virtual:16:4"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '.') c = '_';
      }
      return name;
    });

TEST(SchemeComparisonTest, LTreeBeatsSequentialOnRandomInserts) {
  // The paper's core positioning (Section 1): sequential labels cost ~n/2
  // relabels per insert, the L-Tree O(log n).
  auto seq = MakeLabelStore("sequential").ValueOrDie();
  auto lt = MakeLabelStore("ltree:16:4").ValueOrDie();
  std::vector<ItemHandle> seq_order;
  std::vector<ItemHandle> lt_order;
  ASSERT_TRUE(seq->BulkLoad(512, &seq_order).ok());
  ASSERT_TRUE(lt->BulkLoad(512, &lt_order).ok());
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const size_t r = static_cast<size_t>(rng.Uniform(seq_order.size()));
    auto sid = seq->InsertAfter(seq_order[r], i);
    auto lid = lt->InsertAfter(lt_order[r], i);
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(lid.ok());
    seq_order.insert(seq_order.begin() + static_cast<long>(r) + 1, *sid);
    lt_order.insert(lt_order.begin() + static_cast<long>(r) + 1, *lid);
  }
  const double seq_cost = seq->stats().RelabelsPerInsert();
  const double lt_cost = lt->stats().RelabelsPerInsert();
  // Sequential should be two orders of magnitude worse at n ~ 1-2.5k.
  EXPECT_GT(seq_cost, 100.0);
  EXPECT_LT(lt_cost, 40.0);
  EXPECT_GT(seq_cost, 5.0 * lt_cost);
}

}  // namespace
}  // namespace listlab
}  // namespace ltree
