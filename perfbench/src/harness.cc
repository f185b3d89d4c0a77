#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double TailPercentile(size_t n) {
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    // Integer form of ceil(pct * n / 100), exact for these pct values.
    const uint64_t scaled = static_cast<uint64_t>(std::llround(pct * 100));
    const uint64_t rank = (scaled * n + 9999) / 10000;
    if (n >= rank + 10) return pct;
  }
  return 0;
}

double Samples::At(double pct) {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return Percentile(values_, pct);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string PathMetricKey(std::string_view path) {
  std::string out;
  size_t i = 0;
  while (i < path.size()) {
    if (path.compare(i, 2, "//") == 0) {
      out += "desc_";
      i += 2;
    } else if (path[i] == '/') {
      out += "child_";
      ++i;
    } else {
      const size_t end = std::min(path.find('/', i), path.size());
      const std::string_view step = path.substr(i, end - i);
      out += step == "*" ? std::string("any") : std::string(step);
      if (end < path.size()) out += '_';
      i = end;
    }
  }
  return out;
}

// ----------------------------------------------------------------- tracer

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& child : spans) {
    if (child.parent == kNoParent) continue;
    const Span& parent = spans[child.parent];
    const int64_t covered = std::min(child.end_ns, parent.end_ns) -
                            std::max(child.start_ns, parent.start_ns);
    if (covered > 0) self[child.parent] -= covered;
  }
  return self;
}

uint32_t Tracer::Intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

Tracer::Scope Tracer::Open(uint32_t name) {
  if (!enabled_) return Scope();
  const auto index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{.name = name, .parent = open_, .start_ns = NowNs()});
  open_ = index;
  return Scope(this, index);
}

void Tracer::Close(uint32_t index) {
  spans_[index].end_ns = NowNs();
  open_ = spans_[index].parent;
}

int64_t RootTimeNs(const Tracer& tracer, uint32_t name) {
  int64_t total = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == name && s.parent == kNoParent) total += s.end_ns - s.start_ns;
  }
  return total;
}

void SpanLedger::Fold(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<SpanTotals*> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t id = spans[i].name;
    if (id >= by_id.size()) by_id.resize(id + 1, nullptr);
    if (by_id[id] == nullptr) by_id[id] = &totals_[tracer.NameOf(id)];
    SpanTotals& t = *by_id[id];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
}

const SpanTotals& SpanLedger::Of(const std::string& name) const {
  static const SpanTotals kNone;
  const auto it = totals_.find(name);
  return it == totals_.end() ? kNone : it->second;
}

double SpanLedger::MeanNs(const std::string& name) const {
  const SpanTotals& t = Of(name);
  return t.count == 0 ? 0 : static_cast<double>(t.total_ns) / t.count;
}

double SpanLedger::MeanSelfNs(const std::string& name) const {
  const SpanTotals& t = Of(name);
  return t.count == 0 ? 0 : static_cast<double>(t.self_ns) / t.count;
}

bool WriteTrace(const std::string& path, const SpanLedger& ledger,
                const Tracer& tracer, size_t max_spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& [name, t] : ledger.totals()) {
    out << "{\"summary\":\"" << name << "\",\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
        << "}\n";
  }
  const std::vector<Span>& spans = tracer.spans();
  const size_t n = std::min(max_spans, spans.size());
  const std::vector<Span> head(spans.begin(), spans.begin() + n);
  const std::vector<int64_t> self = SelfTimes(head);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = head[i];
    out << "{\"id\":" << i << ",\"name\":\"" << tracer.NameOf(s.name)
        << "\",\"parent\":";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- transport

TimingTransport::TimingTransport(ltree::replica::Transport* inner,
                                 Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      serve_name_(tracer->Intern("replica.serve")) {}

ltree::Result<std::vector<uint8_t>> TimingTransport::Call(
    const std::vector<uint8_t>& request, uint64_t timeout_ms) {
  wire_bytes_ += request.size();
  ltree::Result<std::vector<uint8_t>> response = [&] {
    Tracer::Scope serve = tracer_->Open(serve_name_);
    return inner_->Call(request, timeout_ms);
  }();
  if (response.ok()) wire_bytes_ += response->size();
  if (capture_left_ > 0 && response.ok()) {
    --capture_left_;
    captured_.push_back(request);
    captured_.push_back(*response);
  }
  return response;
}

// ----------------------------------------------------------------- output

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
