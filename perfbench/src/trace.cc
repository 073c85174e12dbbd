#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

// Length of the union of [lo, hi) intervals, each clipped to [from, to).
uint64_t CoveredLength(std::vector<std::pair<uint64_t, uint64_t>> intervals, uint64_t from,
                       uint64_t to) {
  for (auto& [lo, hi] : intervals) {
    lo = std::clamp(lo, from, to);
    hi = std::clamp(hi, from, to);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = from;
  for (const auto& [lo, hi] : intervals) {
    const uint64_t start = std::max(lo, reach);
    if (hi > start) {
      covered += hi - start;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "bench", "apps", "libcopier", "linux_glue", "service", "sched", "engine", "hw", "simos"};
  return kNames[static_cast<size_t>(layer)];
}

uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Tracer::BeginRequest(uint32_t request, copier::Cycles arrival) {
  request_ = request;
  stack_.clear();
  stack_.push_back(Open("bench.request", Layer::kBench, arrival));
}

void Tracer::EndRequest(copier::Cycles completion) {
  if (!stack_.empty()) {
    Close(stack_.front(), completion);
  }
  stack_.clear();
}

int32_t Tracer::Open(const char* name, Layer layer, copier::Cycles v_start) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.request = request_;
  span.parent = current();
  span.v_start = v_start;
  span.host_start = HostNowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index, copier::Cycles v_end) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.host_end = HostNowNs();
  span.v_end = std::max<uint64_t>(v_end, span.v_start);
  // Pop through `index` (spans close innermost first).
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) {
      break;
    }
  }
}

void Tracer::AddDerived(const char* name, Layer layer, int32_t parent, copier::Cycles v_start,
                        copier::Cycles v_end) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.request = request_;
  span.parent = parent;
  span.v_start = v_start;
  span.v_end = std::max(v_end, v_start);
  // No host interval of its own: the host time stays in the parent call.
  span.host_start = span.host_end =
      parent >= 0 ? spans_[static_cast<size_t>(parent)].host_end : HostNowNs();
  span.derived = true;
  spans_.push_back(span);
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans, bool virtual_time) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(
          virtual_time ? span.v_start : span.host_start,
          virtual_time ? span.v_end : span.host_end);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = virtual_time ? spans[i].v_start : spans[i].host_start;
    const uint64_t hi = virtual_time ? spans[i].v_end : spans[i].host_end;
    self[i] = (hi - lo) - CoveredLength(children[i], lo, hi);
  }
  return self;
}

std::vector<RequestBreakdown> BreakDown(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self_host = SelfTimes(spans, false);
  const std::vector<uint64_t> self_virtual = SelfTimes(spans, true);
  // Parents precede children, so one forward sweep finds every span's root.
  std::vector<size_t> root(spans.size());
  std::vector<int64_t> slot(spans.size(), -1);  // root span -> its breakdown
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> covered;
  std::vector<RequestBreakdown> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) {
      root[i] = i;
      if (span.layer == Layer::kBench) {
        slot[i] = static_cast<int64_t>(out.size());
        RequestBreakdown r;
        r.latency_cycles = span.v_end - span.v_start;
        out.push_back(r);
        covered.emplace_back();
      }
      continue;
    }
    root[i] = root[static_cast<size_t>(span.parent)];
    const int64_t k = slot[root[i]];
    if (k < 0) {
      continue;  // outside any request (set-up, submissions before a csync)
    }
    RequestBreakdown& r = out[static_cast<size_t>(k)];
    const size_t layer = static_cast<size_t>(span.layer);
    r.self_host_ns[layer] += self_host[i];
    r.self_cycles[layer] += self_virtual[i];
    covered[static_cast<size_t>(k)].emplace_back(span.v_start, span.v_end);
  }
  for (size_t i = 0, k = 0; i < spans.size(); ++i) {
    if (slot[i] >= 0) {
      out[k].covered_cycles = CoveredLength(covered[k], spans[i].v_start, spans[i].v_end);
      ++k;
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      uint32_t max_requests) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const uint64_t origin = spans.empty() ? 0 : spans.front().host_start;
  std::fprintf(out, "{\"traceEvents\":[\n");
  uint32_t roots = 0;
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0 && ++roots > max_requests) {
      break;
    }
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%u,"
                 "\"v_start\":%llu,\"v_end\":%llu,\"derived\":%s}}",
                 first ? "" : ",\n", s.name, LayerName(s.layer),
                 static_cast<unsigned>(s.layer), (s.host_start - origin) / 1e3,
                 (s.host_end - s.host_start) / 1e3, i, s.parent, s.request,
                 static_cast<unsigned long long>(s.v_start),
                 static_cast<unsigned long long>(s.v_end), s.derived ? "true" : "false");
    first = false;
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
