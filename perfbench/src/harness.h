// Measurement plumbing shared by every workload of the end-to-end
// benchmark: latency samples and the percentile rule, the in-memory span
// tracer with self-time arithmetic, the metric-name charset, the timing
// Transport decorator, and the result printer.
//
// Nothing here reaches inside the library: spans are opened around calls
// into its public API from the benchmark's own code.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "replica/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile `pct` (0 < pct <= 100) of ascending `sorted`.
double Percentile(const std::vector<double>& sorted, double pct);

/// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least ten of
/// `n` samples strictly beyond its nearest rank; 0 when even the median
/// does not (fewer than 20 samples).
double TailPercentile(size_t n);

/// Per-call latencies of one kind of call, in microseconds.
class Samples {
 public:
  void Add(double us) {
    values_.push_back(us);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  void Clear() { values_.clear(); }
  /// Percentile `pct`; sorts on first use after an Add.
  double At(double pct);

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// ------------------------------------------------------------------ names

/// Metric and span names use only [A-Za-z0-9_.-], start with a letter or
/// digit, and are at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// Turns a path query into a metric-name suffix: "/" becomes "child_",
/// "//" becomes "desc_", "*" becomes "any", e.g. "//book//title" ->
/// "desc_book_desc_title".
std::string PathMetricKey(std::string_view path);

// ----------------------------------------------------------------- tracer

struct Span {
  uint32_t name = 0;
  /// Index of the enclosing span in the tracer's list, or kNoParent.
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// Per-span self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap (a single
/// thread opens them one after the other), so that part is the sum of the
/// children's durations, each clipped to the parent's interval.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Records spans in memory. A disabled tracer hands out inert scopes and
/// never reads the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Id of `name`, registering it on first use.
  uint32_t Intern(const std::string& name);
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, uint32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }

   private:
    Tracer* tracer_ = nullptr;
    uint32_t index_ = 0;
  };

  /// Opens a span as a child of the innermost open one; it closes when
  /// the returned scope dies.
  [[nodiscard]] Scope Open(uint32_t name);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }
  /// Drops every span after the first `n`; call with no span open.
  void Truncate(size_t n) {
    if (n < spans_.size()) spans_.resize(n);
  }

 private:
  void Close(uint32_t index);

  bool enabled_;
  std::vector<Span> spans_;
  uint32_t open_ = kNoParent;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> ids_;
};

/// Summed duration of the root spans named `name`.
int64_t RootTimeNs(const Tracer& tracer, uint32_t name);

/// Per-name totals over many rounds of spans.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanLedger {
 public:
  /// Adds every span of `tracer` to the per-name totals.
  void Fold(const Tracer& tracer);
  const SpanTotals& Of(const std::string& name) const;
  /// Mean span duration of `name` in ns; 0 when it never ran.
  double MeanNs(const std::string& name) const;
  /// Mean self time of `name` in ns; 0 when it never ran.
  double MeanSelfNs(const std::string& name) const;
  const std::map<std::string, SpanTotals>& totals() const { return totals_; }

 private:
  std::map<std::string, SpanTotals> totals_;
};

/// Writes the per-name totals and the first `max_spans` spans of `tracer`
/// as JSON lines to `path`. Returns false if the file cannot be written.
bool WriteTrace(const std::string& path, const SpanLedger& ledger,
                const Tracer& tracer, size_t max_spans);

// -------------------------------------------------------------- transport

/// Sits between a session (or its FaultyTransport) and the PrimaryEndpoint.
/// It forwards each exchange unchanged, counts the request and response
/// bytes the endpoint sees, opens a "replica.serve" span around the inner
/// call when tracing, and can keep copies of the clean frames so their
/// encode/decode cost can be timed outside the round.
class TimingTransport : public ltree::replica::Transport {
 public:
  TimingTransport(ltree::replica::Transport* inner, Tracer* tracer);

  ltree::Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                           uint64_t timeout_ms) override;

  uint64_t wire_bytes() const { return wire_bytes_; }

  /// Keeps copies of up to `max_frames` further requests and responses.
  void CaptureFrames(size_t max_frames) { capture_left_ = max_frames; }
  std::vector<std::vector<uint8_t>>& captured() { return captured_; }

 private:
  ltree::replica::Transport* inner_;
  Tracer* tracer_;
  uint32_t serve_name_;
  uint64_t wire_bytes_ = 0;
  size_t capture_left_ = 0;
  std::vector<std::vector<uint8_t>> captured_;
};

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values printed with every digit.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
