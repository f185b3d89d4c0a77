// Unit tests for the benchmark's own measurement code. Run with
//   python3 perfbench/run.py --selftest
// (or the perfbench_selftest binary directly); exits non-zero on failure.

#include <cstdio>
#include <string>
#include <vector>

#include "common/macros.h"
#include "harness.h"
#include "replica/wire_format.h"
#include "store/document_store.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TestPercentileRule() {
  // The highest percentile with at least ten samples beyond its rank.
  EXPECT(TailPercentile(0) == 0);
  EXPECT(TailPercentile(19) == 0);
  EXPECT(TailPercentile(20) == 50);
  EXPECT(TailPercentile(99) == 50);
  EXPECT(TailPercentile(100) == 90);
  EXPECT(TailPercentile(999) == 90);
  EXPECT(TailPercentile(1000) == 99);
  EXPECT(TailPercentile(9999) == 99);
  EXPECT(TailPercentile(10000) == 99.9);
  EXPECT(TailPercentile(100000) == 99.99);

  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT(Percentile(sorted, 50) == 500);
  EXPECT(Percentile(sorted, 99) == 990);
  EXPECT(Percentile(sorted, 100) == 1000);
  EXPECT(Percentile({7.0}, 99) == 7.0);
  EXPECT(Percentile({}, 50) == 0);

  Samples s;
  for (int i = 100; i >= 1; --i) s.Add(i);
  EXPECT(s.At(50) == 50);
  s.Add(0.5);
  EXPECT(s.size() == 101);
  EXPECT(s.At(0.5) == 0.5);
}

void TestSelfTimes() {
  // root [0,100] holds a [10,40] (which holds a1 [15,25]) and b [50,90].
  const std::vector<Span> spans = {
      {.name = 0, .parent = kNoParent, .start_ns = 0, .end_ns = 100},
      {.name = 1, .parent = 0, .start_ns = 10, .end_ns = 40},
      {.name = 2, .parent = 1, .start_ns = 15, .end_ns = 25},
      {.name = 3, .parent = 0, .start_ns = 50, .end_ns = 90},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 30);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 40);

  // A child reaching past its parent only counts where they overlap.
  const std::vector<Span> clipped = {
      {.name = 0, .parent = kNoParent, .start_ns = 0, .end_ns = 10},
      {.name = 1, .parent = 0, .start_ns = 5, .end_ns = 20},
  };
  EXPECT(SelfTimes(clipped)[0] == 5);

  // The tracer records the nesting it was opened with, and the ledger's
  // self time is the span minus its children.
  Tracer tracer(true);
  const uint32_t outer = tracer.Intern("outer");
  const uint32_t inner = tracer.Intern("inner");
  {
    Tracer::Scope o = tracer.Open(outer);
    { Tracer::Scope i1 = tracer.Open(inner); }
    { Tracer::Scope i2 = tracer.Open(inner); }
  }
  { Tracer::Scope o = tracer.Open(outer); }
  EXPECT(tracer.spans().size() == 4);
  EXPECT(tracer.spans()[0].parent == kNoParent);
  EXPECT(tracer.spans()[1].parent == 0);
  EXPECT(tracer.spans()[2].parent == 0);
  EXPECT(tracer.spans()[3].parent == kNoParent);
  SpanLedger ledger;
  ledger.Fold(tracer);
  const SpanTotals& o = ledger.Of("outer");
  const SpanTotals& i = ledger.Of("inner");
  EXPECT(o.count == 2 && i.count == 2);
  EXPECT(o.self_ns == o.total_ns - i.total_ns);
  EXPECT(i.self_ns == i.total_ns);
  EXPECT(ledger.Of("missing").count == 0);

  Tracer off(false);
  { Tracer::Scope s = off.Open(off.Intern("x")); }
  EXPECT(off.spans().empty());
}

void TestMetricNames() {
  EXPECT(ValidMetricName("edit_p50_us"));
  EXPECT(ValidMetricName("store.self_ns"));
  EXPECT(ValidMetricName("a-b.c_D9"));
  EXPECT(ValidMetricName("9lives"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("query.label_plan_us.//book"));
  EXPECT(!ValidMetricName("a*b"));
  EXPECT(!ValidMetricName("caf\xc3\xa9"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));

  EXPECT(PathMetricKey("//book//title") == "desc_book_desc_title");
  EXPECT(PathMetricKey("/site/books//para") == "child_site_child_books_desc_para");
  EXPECT(PathMetricKey("//book//*") == "desc_book_desc_any");
  EXPECT(PathMetricKey("chapter") == "chapter");
  for (const char* path : {"//book//title", "/site/books//para",
                           "//chapter/title", "//book//*", "/site//title"}) {
    EXPECT(ValidMetricName("query.label_plan_us." + PathMetricKey(path)));
  }
}

/// Answers every request with a fixed transformation of its bytes, or a
/// fixed error.
class EchoTransport : public ltree::replica::Transport {
 public:
  ltree::Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                           uint64_t timeout_ms) override {
    seen = request;
    last_timeout = timeout_ms;
    if (fail) return ltree::Status::TimedOut("echo down");
    std::vector<uint8_t> out(request.rbegin(), request.rend());
    out.push_back(0xAB);
    return out;
  }
  std::vector<uint8_t> seen;
  uint64_t last_timeout = 0;
  bool fail = false;
};

void TestTimingTransportPassThrough() {
  for (const bool traced : {false, true}) {
    EchoTransport echo;
    Tracer tracer(traced);
    TimingTransport timing(&echo, &tracer);
    timing.CaptureFrames(1);
    const std::vector<uint8_t> request = {1, 2, 3, 250, 0};
    auto response = timing.Call(request, 77);
    EXPECT(response.ok());
    EXPECT(echo.seen == request);
    EXPECT(echo.last_timeout == 77);
    EXPECT(*response == (std::vector<uint8_t>{0, 250, 3, 2, 1, 0xAB}));
    EXPECT(timing.wire_bytes() == 11);
    EXPECT(timing.captured().size() == 2);
    EXPECT(timing.captured()[0] == request);
    EXPECT(timing.captured()[1] == *response);
    EXPECT(tracer.spans().size() == (traced ? 1u : 0u));

    echo.fail = true;
    auto failed = timing.Call(request, 5);
    EXPECT(!failed.ok() && failed.status().code() == ltree::StatusCode::kTimedOut);
    EXPECT(timing.wire_bytes() == 16);
  }

  // Over a real endpoint, the decorated exchange returns exactly the bytes
  // the bare endpoint does.
  auto store = ltree::store::DocumentStore::Make(
                   {.num_shards = 2, .scheme_spec = "ltree:16:4"})
                   .ValueOrDie();
  LTREE_CHECK_OK(store->CreateDocument(1));
  LTREE_CHECK_OK(store->InsertBatchAfterRank(1, 0, 50));
  const uint32_t shard = store->ShardOf(1);
  ltree::replica::PrimaryEndpoint endpoint(store.get());
  Tracer tracer(true);
  TimingTransport timing(&endpoint, &tracer);
  const std::vector<uint8_t> request = ltree::replica::EncodeFrame(
      ltree::replica::MakeCatchUpRequestFrame(shard, 0, 42));
  auto direct = endpoint.Call(request, 50);
  auto decorated = timing.Call(request, 50);
  EXPECT(direct.ok() && decorated.ok());
  EXPECT(*direct == *decorated);
  EXPECT(timing.wire_bytes() == request.size() + decorated->size());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTimes();
  perfbench::TestMetricNames();
  perfbench::TestTimingTransportPassThrough();
  if (perfbench::failures > 0) {
    std::printf("perfbench selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
