// Scheme shootout: drive every labeling scheme with the same update stream
// and compare relabeling work and label sizes — the comparison the paper's
// Section 1 and Section 5 frame qualitatively.
//
// Build & run:   ./build/examples/scheme_shootout [initial] [inserts]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/timer.h"
#include "listlab/factory.h"
#include "workload/update_stream.h"

using namespace ltree;

int main(int argc, char** argv) {
  const uint64_t initial =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  const uint64_t inserts =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5000;

  const char* specs[] = {"sequential",  "gap:64",      "gap:4096",
                         "bender",      "ltree:16:4",  "ltree:64:2",
                         "virtual:16:4"};

  std::printf("%llu initial items, %llu uniform random inserts\n\n",
              (unsigned long long)initial, (unsigned long long)inserts);
  std::printf("%-16s %14s %12s %10s %10s\n", "scheme", "relabels/insert",
              "rebalances", "bits", "ms");

  for (const char* spec : specs) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<listlab::ItemHandle> handles;
    if (!store->BulkLoad(initial, &handles).ok()) {
      std::printf("%-16s bulk load failed\n", spec);
      continue;
    }
    workload::UpdateStream stream(
        workload::StreamOptions{.kind = workload::StreamKind::kUniform,
                                .seed = 5});
    Timer timer;
    bool ok = true;
    for (uint64_t i = 0; i < inserts && ok; ++i) {
      const auto op = stream.Next(handles.size());
      auto h = store->InsertAfter(handles[op.rank], initial + i);
      if (!h.ok()) {
        std::printf("%-16s insert failed: %s\n", spec,
                    h.status().ToString().c_str());
        ok = false;
        break;
      }
      handles.insert(handles.begin() + static_cast<long>(op.rank) + 1, *h);
    }
    if (!ok) continue;
    const double ms = timer.ElapsedMillis();
    const MaintStats st = store->stats();
    std::printf("%-16s %14.2f %12llu %10u %10.1f\n",
                store->name().c_str(), st.RelabelsPerInsert(),
                (unsigned long long)st.rebalances, store->label_bits(),
                ms);
  }

  std::printf(
      "\nExpected shape (paper Sections 1 & 5): sequential pays ~n/2 "
      "relabels per\ninsert; fixed gaps delay but do not avoid mass "
      "renumbering; the L-Tree and\nthe density-scaled baseline stay "
      "polylogarithmic with O(log n)-bit labels.\n");
  return 0;
}
