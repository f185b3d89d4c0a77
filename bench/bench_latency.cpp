// ROADMAP carry-over: single-threaded per-operation latency profile across
// all six labeling-scheme spec families, parameterized by (f, s) where the
// spec takes them. Where bench_baselines reports throughput-style aggregates
// (relabels/insert, wall ms), this bench times every individual InsertAfter/
// InsertBefore and reports the tail (p50/p90/p99/p999) — the number an
// interactive editor or sync server actually feels when one insert lands on
// a covering relabel.
//
// Set BENCH_PIN_CPU=<core> to pin the thread (bench::MaybePinCpu), which
// stops migrations from polluting p99.9; the helper warns when the core's
// cpufreq governor is not "performance".
//
// Usage:   bench_latency [initial] [ops] [json_path]
//
// Emits BENCH_latency.json: one record per (spec, f, s) with the latency
// percentiles (ns) plus relabels/insert and label bits for context.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "listlab/factory.h"
#include "workload/update_stream.h"

using namespace ltree;

namespace {

struct SpecPoint {
  std::string spec;  // full factory spec string
  uint32_t f = 0;    // 0 = family does not take (f, s)
  uint32_t s = 0;
};

struct Row {
  SpecPoint point;
  std::string scheme;
  double relabels_per_insert = 0.0;
  uint32_t bits = 0;
  double wall_ms = 0.0;
  bench::LatencySummary lat;
};

Row RunSpec(const SpecPoint& point, uint64_t initial, uint64_t ops) {
  auto store = listlab::MakeLabelStore(point.spec).ValueOrDie();
  std::vector<listlab::ItemHandle> handles;
  LTREE_CHECK_OK(store->BulkLoad(initial, &handles));
  workload::UpdateStream stream(workload::StreamOptions{
      .kind = workload::StreamKind::kUniform, .seed = 97});

  bench::LatencyCollector lat(ops);
  Timer wall;
  Timer op_timer;
  for (uint64_t i = 0; i < ops; ++i) {
    const auto op = stream.Next(handles.size());
    const LeafCookie cookie = initial + i;
    Result<listlab::ItemHandle> h = Status::Internal("unset");
    op_timer.Reset();
    if (op.kind == workload::ListOp::Kind::kInsertBefore) {
      h = store->InsertBefore(handles[op.rank], cookie);
    } else {
      h = store->InsertAfter(handles[op.rank], cookie);
    }
    lat.Record(op_timer.ElapsedNanos());
    LTREE_CHECK(h.ok());
    // Handle bookkeeping stays outside the timed window: it is the
    // driver's cost, not the scheme's.
    const size_t at = op.kind == workload::ListOp::Kind::kInsertBefore
                          ? op.rank
                          : op.rank + 1;
    handles.insert(handles.begin() + static_cast<long>(at), *h);
  }
  const double ms = wall.ElapsedMillis();
  LTREE_CHECK_OK(store->Validate().ToStatus());

  Row row;
  row.point = point;
  row.scheme = store->name();
  row.relabels_per_insert = store->stats().RelabelsPerInsert();
  row.bits = store->label_bits();
  row.wall_ms = ms;
  row.lat = lat.Summarize();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "latency: per-insert tail latency across labeling schemes",
      "Claim: L-Tree variants keep p99 insert latency polylogarithmic "
      "where sequential/gap schemes pay linear relabeling spikes.");
  bench::MaybePinCpu();

  const uint64_t initial =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  const uint64_t ops = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12000;
  const std::string json_path = argc > 3 ? argv[3] : "BENCH_latency.json";

  // The six spec families from listlab::MakeLabelStore; the tree-backed
  // families sweep (f, s), the flat baselines take one representative
  // parameterization each.
  std::vector<SpecPoint> points = {
      {"sequential", 0, 0},
      {"gap:64", 0, 0},
      {"bender", 0, 0},
  };
  const std::pair<uint32_t, uint32_t> fs[] = {{4, 2}, {16, 4}, {64, 8}};
  for (auto [f, s] : fs) {
    points.push_back({StrFormat("ltree:%u:%u", f, s), f, s});
    points.push_back({StrFormat("ltree:%u:%u:purge", f, s), f, s});
    points.push_back({StrFormat("virtual:%u:%u", f, s), f, s});
  }

  bench::JsonWriter json("latency");
  json.Field("initial", initial).Field("ops", ops);

  std::printf("%-20s %10s %10s %10s %10s %8s\n", "spec", "p50(ns)",
              "p99(ns)", "p999(ns)", "max(ns)", "bits");
  for (const SpecPoint& point : points) {
    const Row row = RunSpec(point, initial, ops);
    std::printf("%-20s %10.0f %10.0f %10.0f %10.0f %8u\n",
                row.point.spec.c_str(), row.lat.p50_ns, row.lat.p99_ns,
                row.lat.p999_ns, row.lat.max_ns, row.bits);
    json.BeginRecord()
        .Field("spec", row.point.spec)
        .Field("scheme", row.scheme)
        .Field("f", uint64_t{row.point.f})
        .Field("s", uint64_t{row.point.s})
        .Field("relabels_per_insert", row.relabels_per_insert)
        .Field("label_bits", uint64_t{row.bits})
        .Field("wall_ms", row.wall_ms);
    row.lat.EmitFields(&json, "op");
  }
  if (!json.WriteFile(json_path)) return 1;
  return 0;
}
