// The benchmark's three workloads and the per-run accumulator they share.
//
// A round builds the workload's state from one input seed (timed as
// set-up), runs the measured closed loop, and checks the outputs. The run
// seed expands into kInputs input seeds; a run is whole cycles of one
// round per input, repeated until its time budget is spent, so every
// metric pools the same inputs however fast the machine is. A round's
// counts depend on its input alone, so main.cc checks that each
// repeat of an input reproduces them exactly.
//
// The end-to-end figures are computed per cycle and reported as the median
// over the cycles, so one cycle slowed by the machine does not move them.
//
// With tracing on, each input runs untraced and then traced. Latency
// samples and throughput come from untraced rounds only; spans and the
// shadow replays that give the per-layer costs come from traced rounds.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// A round's counts, which must repeat exactly for the same input.
using Fingerprint = std::map<std::string, uint64_t>;

/// Everything a run measures, filled by the workload's rounds.
struct Accum {
  std::string workload;
  // Calls issued and calls that returned a non-OK status (failed_op_ratio).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Correctness: any gate that fails clears `correct` and adds a note.
  bool correct = true;
  std::vector<std::string> errors;

  // ---- untraced rounds
  Samples setup_s;
  // This cycle's edit and read latencies and edit-loop throughput.
  Samples edit_us;
  Samples read_us;  ///< order reads; path queries on xml-ingest-query
  uint64_t loop_edits = 0;
  double loop_s = 0;  ///< wall time of the edit loops
  /// End-to-end figures of each finished cycle, by metric name.
  std::map<std::string, std::vector<double>> per_cycle;
  uint64_t edit_samples = 0, read_samples = 0;
  Samples sync_us;
  uint64_t ingest_bytes = 0;
  double ingest_s = 0;
  double untraced_phase_s = 0;
  uint64_t untraced_rounds = 0;

  // ---- traced rounds
  SpanLedger spans;
  double traced_phase_s = 0;  ///< measured phase minus instrument time
  uint64_t traced_rounds = 0;
  uint64_t parse_bytes = 0;
  uint64_t bulkload_nodes = 0;
  uint64_t mirror_apply_items = 0;  ///< events or snapshot entries applied
  double encode_ns = 0, decode_ns = 0;
  uint64_t codec_bytes = 0;

  // ---- per-input counts; metrics use their sum over the inputs
  std::map<uint64_t, Fingerprint> counts_by_input;
  uint64_t rounds = 0;

  /// `name` summed over the inputs.
  double Count(const std::string& name) const {
    double total = 0;
    for (const auto& [input, counts] : counts_by_input) {
      const auto it = counts.find(name);
      if (it != counts.end()) total += static_cast<double>(it->second);
    }
    return total;
  }

  void Fail(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
    correct = false;
  }
  /// Records one call outcome.
  void Call(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct RoundContext {
  uint64_t seed = 0;
  bool traced = false;
  Tracer* tracer = nullptr;
  Accum* acc = nullptr;
};

/// What a round hands back to main.cc beyond the accumulator.
struct RoundResult {
  double phase_s = 0;       ///< wall time of the measured phase
  double instrument_s = 0;  ///< shadow replays and probes inside it
  Fingerprint counts;
};

RoundResult RunDocstoreMixedRound(const RoundContext& ctx);
RoundResult RunReplicaLossyRound(const RoundContext& ctx);
RoundResult RunXmlIngestQueryRound(const RoundContext& ctx);

/// The five fixed path queries of xml-ingest-query.
const std::vector<std::string>& QueryPaths();

/// Turns the cycle's edit and read samples into per-cycle figures and
/// clears them for the next cycle.
void CloseCycle(Accum& acc);

/// Metric lists in BENCHMARK.json order. A metric a workload does not
/// exercise reads 0 (per-layer only; every end-to-end metric is non-zero
/// on every workload).
std::vector<Metric> EndToEndMetrics(Accum& acc);
std::vector<Metric> PerLayerMetrics(Accum& acc);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
