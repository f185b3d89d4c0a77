// End-to-end benchmark of the labeling stack.
//
//   ltree_e2e_bench --workload <docstore-mixed|xml-ingest-query|replica-lossy>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs rounds of the workload for about --seconds seconds, checks every
// output, prints a readable table and, as its last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every workload is a single closed-loop client: each call is
// issued only after the previous one returned.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0' && text[0] != '-';
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 120) return false;
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return false;
      args->trace = static_cast<int>(n);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

using RoundFn = RoundResult (*)(const RoundContext&);

RoundFn FindWorkload(const std::string& name) {
  if (name == "docstore-mixed") return RunDocstoreMixedRound;
  if (name == "xml-ingest-query") return RunXmlIngestQueryRound;
  if (name == "replica-lossy") return RunReplicaLossyRound;
  return nullptr;
}

/// Inputs a run pools; each cycle runs one round on each.
constexpr uint64_t kInputs = 16;

/// The seed of input `k` of a run (SplitMix64 of the pair).
uint64_t InputSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed * kInputs + k + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Keeps the counts of input `k`, failing the run if an earlier round on
/// the same input counted differently.
void Record(uint64_t k, Fingerprint counts, Accum* acc) {
  Fingerprint& expected = acc->counts_by_input[k];
  if (!expected.empty() && expected != counts) {
    acc->Fail("input " + std::to_string(k) +
              ": counts differ between rounds on the same input");
  }
  expected = std::move(counts);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <docstore-mixed|xml-ingest-query|"
                 "replica-lossy> --seed <n> --seconds <1-120> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const RoundFn round = FindWorkload(args.workload);
  if (round == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  Accum acc;
  acc.workload = args.workload;
  Tracer off(false);
  Tracer on(true);
  // A first round warms the process up (first-touch page faults, allocator
  // growth); it is checked but not measured.
  {
    Accum warm;
    warm.workload = args.workload;
    RoundResult r = round(RoundContext{
        .seed = InputSeed(args.seed, 0), .tracer = &off, .acc = &warm});
    acc.attempted = warm.attempted;
    acc.failed = warm.failed;
    acc.correct = warm.correct;
    acc.errors = warm.errors;
    acc.rounds = 1;
    Record(0, std::move(r.counts), &acc);
  }
  const int64_t start = NowNs();
  while (acc.correct) {
    for (uint64_t k = 0; k < kInputs && acc.correct; ++k) {
      for (const bool traced : {false, true}) {
        if (traced && args.trace == 0) continue;
        if (traced) on.Clear();
        RoundResult r = round(RoundContext{.seed = InputSeed(args.seed, k),
                                           .traced = traced,
                                           .tracer = traced ? &on : &off,
                                           .acc = &acc});
        ++acc.rounds;
        if (traced) {
          acc.traced_phase_s += r.phase_s - r.instrument_s;
          ++acc.traced_rounds;
        } else {
          acc.untraced_phase_s += r.phase_s;
          ++acc.untraced_rounds;
        }
        Record(k, std::move(r.counts), &acc);
      }
    }
    CloseCycle(acc);
    if (static_cast<double>(NowNs() - start) * 1e-9 >= args.seconds) break;
  }

  std::vector<Metric> metrics =
      args.trace == 1 ? PerLayerMetrics(acc) : EndToEndMetrics(acc);
  for (const Metric& m : metrics) {
    if (!ValidMetricName(m.name)) acc.Fail("bad metric name " + m.name);
  }
  if (args.trace == 1 && !args.trace_out.empty() &&
      !WriteTrace(args.trace_out, acc.spans, on, 20000)) {
    acc.Fail("cannot write " + args.trace_out);
  }

  const size_t cycles = acc.per_cycle["edit_p50_us"].size();
  std::printf(
      "workload %s seed %llu: %llu rounds (%llu traced) in %.2f s, %zu "
      "untraced cycles of %llu inputs\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(acc.rounds),
      static_cast<unsigned long long>(acc.traced_rounds),
      static_cast<double>(NowNs() - start) * 1e-9, cycles,
      static_cast<unsigned long long>(kInputs));
  std::printf("untraced samples: edit %llu, read %llu, sync %zu\n",
              static_cast<unsigned long long>(acc.edit_samples),
              static_cast<unsigned long long>(acc.read_samples),
              acc.sync_us.size());
  for (const auto& [name, values] : acc.per_cycle) {
    std::printf("per cycle %s:", name.c_str());
    for (const double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  std::printf("counts over the %zu inputs:", acc.counts_by_input.size());
  for (const auto& [name, value] : acc.counts_by_input.begin()->second) {
    std::printf(" %s=%.0f", name.c_str(), acc.Count(name));
  }
  std::printf("\nfailed_op_ratio %.6g (%llu of %llu calls)\n",
              acc.attempted == 0
                  ? 0.0
                  : static_cast<double>(acc.failed) /
                        static_cast<double>(acc.attempted),
              static_cast<unsigned long long>(acc.failed),
              static_cast<unsigned long long>(acc.attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-52s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : acc.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("%s\n",
              ResultJson(acc.correct, acc.attempted, acc.failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
