// E13 / Section 2.2: bulk loading builds a complete (f/s)-ary tree.
//
// Measures throughput, resulting height, occupancy (n vs the height's leaf
// budget) and the headroom left for insertions — the "maximize the
// capability to accommodate further insertions" goal of Section 2.2.
//
// Usage:   bench_bulkload [max_n] [json_path]
//
// Sizes above max_n are skipped (so CI can smoke-run a small sweep), and
// the run is dumped as machine-readable BENCH_bulkload.json
// (bench::JsonWriter shape) for the perf-trajectory artifacts.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/math_util.h"
#include "common/timer.h"

using namespace ltree;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "E13 / Section 2.2: bulk loading",
      "Claim: initial build is a complete d-ary tree of minimal height, "
      "leaving (f+1)-base slack for future inserts.");

  const uint64_t max_n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000000;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_bulkload.json";

  const Params param_grid[] = {
      {.f = 4, .s = 2}, {.f = 16, .s = 4}, {.f = 64, .s = 8}};

  bench::JsonWriter json("bulkload");
  json.Field("max_n", max_n);

  std::printf("%-14s %10s %8s %10s %14s %12s %12s\n", "params", "n",
              "height", "Mleaf/s", "label space", "bits", "headroom");
  for (const Params& p : param_grid) {
    for (uint64_t n : {1000ull, 100000ull, 1000000ull, 4000000ull}) {
      if (n > max_n) continue;
      auto tree = LTree::Create(p).ValueOrDie();
      std::vector<LeafCookie> cookies(n);
      for (uint64_t i = 0; i < n; ++i) cookies[i] = i;
      Timer timer;
      LTREE_CHECK_OK(tree->BulkLoad(cookies));
      const double secs = timer.ElapsedSeconds();
      LTREE_CHECK_OK(tree->Validate().ToStatus());
      const uint32_t expect_height =
          std::max(1u, CeilLog(p.d(), n));
      LTREE_CHECK(tree->height() == expect_height);
      // Headroom: how many times the current population fits in the
      // height's leaf budget (s * d^H) before a root split.
      const double headroom =
          static_cast<double>(tree->powers().LeafBudget(tree->height())) /
          static_cast<double>(n);
      const double mleaf_per_sec = static_cast<double>(n) / secs / 1e6;
      std::printf("f=%-3u s=%-3u %10llu %8u %10.1f %14llu %12u %11.1fx\n",
                  p.f, p.s, (unsigned long long)n, tree->height(),
                  mleaf_per_sec,
                  (unsigned long long)tree->label_space(), tree->label_bits(),
                  headroom);
      json.BeginRecord()
          .Field("f", uint64_t{p.f})
          .Field("s", uint64_t{p.s})
          .Field("n", n)
          .Field("height", uint64_t{tree->height()})
          .Field("mleaf_per_sec", mleaf_per_sec)
          .Field("label_space", tree->label_space())
          .Field("label_bits", uint64_t{tree->label_bits()})
          .Field("headroom", headroom)
          .Field("nodes_allocated", tree->stats().nodes_allocated);
    }
    std::printf("\n");
  }
  std::printf(
      "Expected: height = ceil(log_d n) exactly; throughput in the "
      "millions of\nleaves per second; headroom >= s/d^frac — room for at "
      "least (s-1)x growth\nbefore the first root split.\n\n");
  json.WriteFile(json_path);
  return 0;
}
