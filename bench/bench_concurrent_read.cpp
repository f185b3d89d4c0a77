// Concurrent read scaling: guarded label reads racing a live writer.
//
// The concurrent order-maintenance refactor claims reads are lock-free on
// the L-Tree schemes (an epoch pin plus seqlock-validated label loads, no
// shared lock), so read throughput should scale with reader threads even
// while one writer mutates the list. This bench measures exactly that:
// for each scheme and reader count, N reader threads run guarded
// CompareOrder calls over never-erased handles while one writer thread
// applies inserts/erases the whole time. Reported per row:
//
//   * reads/s        — total guarded CompareOrder throughput;
//   * scaling        — reads/s relative to the 1-reader row (the lock-free
//                      claim: close to linear; the serialized baseline
//                      plateaus at its shared-lock ceiling);
//   * p50/p99/p999   — per-read latency percentiles (tail latency is where
//                      reader/writer interference shows first);
//   * writer ops/s   — the writer is live, not parked: its rate is printed
//                      so a run that starved the writer is visible.
//
// Usage:   bench_concurrent_read [initial] [millis_per_row] [json_path]
//
// The run dumps machine-readable BENCH_concurrent_read.json
// (bench::JsonWriter shape) so CI can track the perf trajectory.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "listlab/factory.h"

using namespace ltree;

namespace {

using listlab::ItemHandle;
using listlab::LabelStore;

struct RowResult {
  uint64_t total_reads = 0;
  double reads_per_sec = 0.0;
  double writer_ops_per_sec = 0.0;
  double elapsed_sec = 0.0;
  bench::LatencySummary read_latency;
};

RowResult RunRow(const std::string& spec, uint64_t initial, int readers,
                 double millis) {
  auto store = listlab::MakeLabelStore(spec).ValueOrDie();
  std::vector<ItemHandle> handles;
  std::vector<LeafCookie> cookies(initial);
  for (uint64_t i = 0; i < initial; ++i) cookies[i] = i;
  LTREE_CHECK_OK(store->BulkLoad(cookies, &handles));

  // Readers only touch this frozen prefix; the writer's own fresh handles
  // live in its private vector, so the handle containers are race-free and
  // the measurement isolates the label-read path.
  const std::vector<ItemHandle> pinned(handles.begin(),
                                       handles.begin() + initial / 2);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_ops{0};

  std::thread writer([&] {
    Rng rng(99);
    std::vector<ItemHandle> fresh;
    LeafCookie next_cookie = initial;
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (fresh.size() < 1024 || rng.Uniform(2) == 0) {
        const size_t r = static_cast<size_t>(rng.Uniform(pinned.size()));
        auto h = store->InsertAfter(pinned[r], next_cookie++);
        LTREE_CHECK(h.ok());
        fresh.push_back(*h);
      } else {
        const size_t r = static_cast<size_t>(rng.Uniform(fresh.size()));
        LTREE_CHECK_OK(store->Erase(fresh[r]));
        fresh[r] = fresh.back();
        fresh.pop_back();
      }
      ++ops;
    }
    writer_ops.store(ops, std::memory_order_release);
  });

  std::vector<bench::LatencyCollector> collectors(
      static_cast<size_t>(readers));
  std::vector<uint64_t> read_counts(static_cast<size_t>(readers), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));
  Timer row_timer;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      bench::LatencyCollector& lat = collectors[static_cast<size_t>(t)];
      uint64_t reads = 0;
      Timer deadline;
      while (deadline.ElapsedMillis() < millis) {
        // Batch 64 reads per deadline check to keep the clock off the
        // inner loop's critical path.
        for (int b = 0; b < 64; ++b) {
          const size_t i = static_cast<size_t>(rng.Uniform(pinned.size()));
          const size_t j = static_cast<size_t>(rng.Uniform(pinned.size()));
          const Timer op_timer;
          const LabelStore::ReadGuard guard = store->AcquireRead();
          auto cmp = store->CompareOrder(guard, pinned[i], pinned[j]);
          lat.Record(op_timer.ElapsedNanos());
          LTREE_CHECK(cmp.ok());
          bench::DoNotOptimize(*cmp);
          ++reads;
        }
      }
      read_counts[static_cast<size_t>(t)] = reads;
    });
  }
  for (std::thread& th : threads) th.join();
  const double elapsed = row_timer.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  writer.join();

  RowResult out;
  out.elapsed_sec = elapsed;
  bench::LatencyCollector merged;
  for (int t = 0; t < readers; ++t) {
    out.total_reads += read_counts[static_cast<size_t>(t)];
    merged.Merge(collectors[static_cast<size_t>(t)]);
  }
  out.reads_per_sec = static_cast<double>(out.total_reads) / elapsed;
  out.writer_ops_per_sec =
      static_cast<double>(writer_ops.load()) / elapsed;
  out.read_latency = merged.Summarize();
  LTREE_CHECK_OK(store->Validate().ToStatus());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Concurrent reads: guarded CompareOrder vs a live writer",
      "Claim: lock-free guarded reads (epoch pin + seqlock) scale with "
      "reader threads; the serialized shared-lock fallback plateaus.");

  const uint64_t initial =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const double millis = argc > 2 ? std::strtod(argv[2], nullptr) : 200.0;
  const std::string json_path =
      argc > 3 ? argv[3] : "BENCH_concurrent_read.json";

  std::printf("initial n=%llu, %.0f ms per row, 1 live writer throughout\n\n",
              (unsigned long long)initial, millis);

  bench::JsonWriter json("concurrent_read");
  json.Field("initial", initial).Field("millis_per_row", millis);

  // ltree + virtual take the lock-free path; gap:64 is the documented
  // serialized fallback and serves as the shared-lock contrast curve.
  const std::vector<std::string> specs = {"ltree:16:4", "virtual:16:4",
                                          "gap:64"};
  const std::vector<int> reader_counts = {1, 2, 4, 8};

  for (const std::string& spec : specs) {
    std::printf("%-14s %8s %12s %8s %10s %10s %10s %12s\n", spec.c_str(),
                "readers", "reads/s", "scaling", "p50_ns", "p99_ns",
                "p999_ns", "writer/s");
    double baseline = 0.0;
    for (int readers : reader_counts) {
      const RowResult r = RunRow(spec, initial, readers, millis);
      if (readers == 1) baseline = r.reads_per_sec;
      const double scaling =
          baseline > 0.0 ? r.reads_per_sec / baseline : 0.0;
      std::printf("%-14s %8d %12.0f %7.2fx %10.0f %10.0f %10.0f %12.0f\n",
                  "", readers, r.reads_per_sec, scaling,
                  r.read_latency.p50_ns, r.read_latency.p99_ns,
                  r.read_latency.p999_ns, r.writer_ops_per_sec);
      json.BeginRecord()
          .Field("spec", spec)
          .Field("readers", uint64_t{static_cast<uint64_t>(readers)})
          .Field("reads_per_sec", r.reads_per_sec)
          .Field("scaling_vs_1_reader", scaling)
          .Field("writer_ops_per_sec", r.writer_ops_per_sec)
          .Field("elapsed_sec", r.elapsed_sec);
      r.read_latency.EmitFields(&json, "read");
    }
    std::printf("\n");
  }

  std::printf(
      "Expected: on ltree/virtual the reads/s column grows near-linearly "
      "with\nreaders (lock-free guards never exclude each other and the "
      "writer only\ncosts seqlock retries), while gap's serialized "
      "shared-lock readers contend\nwith the writer's exclusive sections "
      "and flatten out. p999 is the earliest\nindicator when writer "
      "interference grows.\n\n");
  json.WriteFile(json_path);
  return 0;
}
