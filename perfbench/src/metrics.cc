// The named metrics, computed from a run's accumulator. Names and units
// here are the ones BENCHMARK.json lists; a per-layer metric of a layer the
// workload does not run reads 0.

#include "workloads.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Count(const Accum& acc, const char* name) { return acc.Count(name); }

double Median(Samples& s) { return s.At(50); }

/// The p99 of `s`, after checking the percentile rule allows it.
double P99(Samples& s, const char* what, Accum& acc) {
  if (TailPercentile(s.size()) < 99) {
    acc.Fail(std::string("too few ") + what + " samples for a p99: " +
             std::to_string(s.size()));
  }
  return s.At(99);
}

}  // namespace

void CloseCycle(Accum& acc) {
  if (acc.edit_us.size() == 0) return;
  const auto add = [&](const char* name, double value) {
    acc.per_cycle[name].push_back(value);
  };
  add("edit_ops_per_s", Ratio(static_cast<double>(acc.loop_edits), acc.loop_s));
  add("edit_p50_us", Median(acc.edit_us));
  add("edit_p99_us", P99(acc.edit_us, "edit", acc));
  add("read_p50_us", Median(acc.read_us));
  add("read_p99_us", P99(acc.read_us, "read", acc));
  acc.edit_samples += acc.edit_us.size();
  acc.read_samples += acc.read_us.size();
  acc.edit_us.Clear();
  acc.read_us.Clear();
  acc.loop_edits = 0;
  acc.loop_s = 0;
}

std::vector<Metric> EndToEndMetrics(Accum& acc) {
  const auto cycles = [&](const char* name) {
    Samples s;
    for (const double v : acc.per_cycle[name]) s.Add(v);
    return s.At(50);
  };
  return {
      {"edit_ops_per_s", cycles("edit_ops_per_s"), "1/s"},
      {"edit_p50_us", cycles("edit_p50_us"), "us"},
      {"edit_p99_us", cycles("edit_p99_us"), "us"},
      {"read_p50_us", cycles("read_p50_us"), "us"},
      {"read_p99_us", cycles("read_p99_us"), "us"},
      {"heap_bytes_per_item",
       Ratio(Count(acc, "heap_bytes"), Count(acc, "live_items")), "B"},
      {"setup_s", Median(acc.setup_s), "s"},
  };
}

std::vector<Metric> PerLayerMetrics(Accum& acc) {
  const SpanLedger& L = acc.spans;
  const auto total = [&](const char* name) {
    return static_cast<double>(L.Of(name).total_ns);
  };
  const double edits = Count(acc, "edits");
  const double listlab_ns = L.MeanNs("listlab.apply");
  const double store_ns = L.MeanNs("store.apply");
  const double attempts = Count(acc, "attempts");
  std::vector<Metric> out = {
      {"xml.parse_ns_per_byte",
       Ratio(total("xml.parse"), static_cast<double>(acc.parse_bytes)), "ns/B"},
      {"docstore.bulkload_ns_per_node",
       Ratio(total("docstore.bulkload"), static_cast<double>(acc.bulkload_nodes)),
       "ns"},
      {"docstore.insert_fragment_us", L.MeanNs("docstore.insert_fragment") * 1e-3,
       "us"},
      {"docstore.delete_subtree_us", L.MeanNs("docstore.delete_subtree") * 1e-3,
       "us"},
      {"docstore.relabels_per_edit",
       acc.workload == "xml-ingest-query" ? Ratio(Count(acc, "relabels"), edits)
                                          : 0,
       "count"},
  };
  for (const std::string& path : QueryPaths()) {
    const std::string key = PathMetricKey(path);
    out.push_back({"query.label_plan_us." + key,
                   L.MeanNs("query.label_plan." + key) * 1e-3, "us"});
  }
  const double self_ns = store_ns > 0 ? store_ns - listlab_ns : 0;
  const double trace_overhead =
      acc.traced_rounds == 0 || acc.untraced_rounds == 0
          ? 0
          : 100.0 * (Ratio(acc.traced_phase_s, acc.traced_rounds) /
                         Ratio(acc.untraced_phase_s, acc.untraced_rounds) -
                     1.0);
  const std::vector<Metric> rest = {
      {"query.rows_per_result",
       Ratio(Count(acc, "checked_rows"), Count(acc, "checked_results")), "count"},
      {"listlab.apply_ns", listlab_ns, "ns"},
      {"listlab.relabels_per_insert",
       Ratio(Count(acc, "relabels"), Count(acc, "inserts")), "count"},
      {"listlab.rebalances_per_kop", 1000 * Ratio(Count(acc, "rebalances"), edits),
       "count"},
      {"virtual_ltree.range_counts_per_edit",
       Ratio(Count(acc, "range_counts"), edits), "count"},
      {"store.apply_ns", store_ns, "ns"},
      {"store.self_ns", self_ns, "ns"},
      {"store.label_at_ns", L.MeanNs("store.label_at"), "ns"},
      {"store.feed_events_per_edit", Ratio(Count(acc, "feed_events"), edits),
       "count"},
      {"store.catchup_us", L.MeanNs("store.catchup") * 1e-3, "us"},
      {"store.mirror_apply_ns_per_event",
       Ratio(total("store.mirror_apply"),
             static_cast<double>(acc.mirror_apply_items)),
       "ns"},
      {"store.snapshot_share",
       Ratio(Count(acc, "snapshots"), Count(acc, "applied")), "count"},
      {"replica.serve_us", L.MeanNs("replica.serve") * 1e-3, "us"},
      {"replica.round_self_us", L.MeanSelfNs("sync") * 1e-3, "us"},
      {"replica.encode_ns_per_byte",
       Ratio(acc.encode_ns, static_cast<double>(acc.codec_bytes)), "ns/B"},
      {"replica.decode_ns_per_byte",
       Ratio(acc.decode_ns, static_cast<double>(acc.codec_bytes)), "ns/B"},
      {"replica.attempts_per_round", Ratio(attempts, Count(acc, "sync_rounds")),
       "count"},
      {"replica.retry_share", Ratio(attempts - Count(acc, "applied"), attempts),
       "count"},
      {"replica.backoff_ms_per_round",
       Ratio(Count(acc, "backoff_ms"), Count(acc, "sync_rounds")), "ms"},
      {"sync_p50_us", acc.sync_us.size() > 0 ? Median(acc.sync_us) : 0, "us"},
      {"sync_p99_us", acc.sync_us.size() > 0 ? P99(acc.sync_us, "sync", acc) : 0,
       "us"},
      {"wire_bytes_per_edit", Ratio(Count(acc, "wire_bytes"), edits), "B"},
      {"ingest_mb_per_s",
       Ratio(static_cast<double>(acc.ingest_bytes) * 1e-6, acc.ingest_s), "MB/s"},
      {"failed_op_ratio",
       Ratio(static_cast<double>(acc.failed), static_cast<double>(acc.attempted)),
       "count"},
      {"trace.overhead_pct", trace_overhead, "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace perfbench
