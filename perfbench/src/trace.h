// Span and counter recording for the traced run.
//
// Every span is one call from the benchmark's own files into a layer of the
// stack, named "<layer>.<call>". It records host start/end (steady clock, ns),
// virtual start/end (cycles of the ExecContext the call charges, or of the
// engine clock for service.* calls), its parent span and its request id.
// Spans stay in memory; WriteChromeTrace dumps them at exit.
//
// A disabled tracer (null pointer) records nothing: every ScopedSpan reduces
// to one branch, and no span reads anything the program can observe — the
// traced run must stay bit-identical to the untraced one.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/exec_context.h"

namespace perfbench {

// The repository's modules, as the benchmark names its layers.
enum class Layer : uint8_t {
  kBench = 0,  // the benchmark's own request span (root)
  kApps,
  kLibcopier,
  kLinuxGlue,
  kService,
  kSched,
  kEngine,
  kHw,
  kSimos,
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

uint64_t HostNowNs();

struct Span {
  const char* name = "";  // static storage: "<layer>.<call>"
  Layer layer = Layer::kBench;
  uint32_t request = 0;
  int32_t parent = -1;  // index into the tracer's span list; -1 = root
  uint64_t host_start = 0;
  uint64_t host_end = 0;
  uint64_t v_start = 0;  // virtual cycles
  uint64_t v_end = 0;
  // Derived from a clock or counter advance inside the parent call rather
  // than timed around a call (engine/hw have no public interposition point).
  bool derived = false;
};

class Tracer {
 public:
  // Opens a request's root span; every span opened until EndRequest is a
  // descendant of it.
  void BeginRequest(uint32_t request, copier::Cycles arrival);
  void EndRequest(copier::Cycles completion);

  int32_t Open(const char* name, Layer layer, copier::Cycles v_start);
  void Close(int32_t index, copier::Cycles v_end);
  // Adds a finished span under `parent` (derived spans).
  void AddDerived(const char* name, Layer layer, int32_t parent, copier::Cycles v_start,
                  copier::Cycles v_end);

  // The innermost open span (-1 when none).
  int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  // Event counters at layer boundaries (e.g. "simos.recv.retries").
  void Count(const std::string& name, double delta = 1) { counters_[name] += delta; }
  double counter(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::map<std::string, double> counters_;
  uint32_t request_ = 0;
};

// RAII span around one call. A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer, const copier::ExecContext* clock)
      : tracer_(tracer), clock_(clock) {
    if (tracer_ != nullptr) {
      index_ = tracer_->Open(name, layer, copier::CtxNow(clock_));
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(index_, copier::CtxNow(clock_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  const copier::ExecContext* clock_;
  int32_t index_ = -1;
};

// Self time of every span: its duration minus the union of its children's
// intervals clipped to it. `virtual_time` selects the clock.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans, bool virtual_time);

// Per-request totals derived from the spans: one per bench.request root.
// Spans outside any request (set-up, deep-queue submissions) count toward
// per-call totals but not here.
struct RequestBreakdown {
  std::array<uint64_t, kLayerCount> self_host_ns{};
  std::array<uint64_t, kLayerCount> self_cycles{};
  uint64_t latency_cycles = 0;  // root span's virtual duration
  uint64_t covered_cycles = 0;  // union of descendant virtual intervals, clipped
};
std::vector<RequestBreakdown> BreakDown(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" events, host-time axis, virtual times in
// args). Writes the spans of the first `max_requests` requests.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      uint32_t max_requests);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
