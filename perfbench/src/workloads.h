// The benchmark's workloads and the pieces they share: the wired stack, the
// counter snapshot taken at phase boundaries, and one pass's output.
//
// A pass builds a fresh stack, runs set-up (untimed for latency, timed as
// setup_s), then the timed phase, then checks every output against a model.
// The driver repeats passes over the same inputs: virtual-time results repeat
// bit for bit, host-time results give medians.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app_util.h"
#include "src/core/linux_glue.h"
#include "src/core/loadgen.h"
#include "src/core/service.h"
#include "src/glue_tap.h"
#include "src/simos/kernel.h"
#include "src/trace.h"

namespace perfbench {

inline constexpr double kNominalGHz = 2.9;  // virtual cycles -> time
inline double CyclesToUs(double cycles) { return cycles / (kNominalGHz * 1e3); }
inline double UsToCycles(double us) { return us * kNominalGHz * 1e3; }

// Counters snapshotted at phase boundaries (set-up end, timed-phase end).
struct Counters {
  copier::core::Engine::Stats engine;
  copier::core::CopierService::IpcFuseStats fuse;
  copier::core::CopierService::SchedStats sched;
  uint64_t minor_faults = 0;
  uint64_t cow_faults = 0;
  uint64_t resident_frames = 0;
  uint64_t skb_acquire_failures = 0;
  uint64_t skb_low_watermark = 0;
  uint64_t atcache_hits = 0;  // manual mode only (the cache is not thread-safe to sample)
  uint64_t atcache_misses = 0;
};

// Kernel + service + glue, wired as serve_harness wires them. The glue is
// installed directly, or behind the GlueTap interposer when tracing.
class Stack {
 public:
  Stack(bool threaded, size_t threads, Tracer* tracer);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  copier::apps::AppProcess* NewApp(copier::apps::Mode mode, const std::string& name);
  Counters Snapshot() const;
  copier::ExecContext* engine_clock() { return &service->engine_ctx(0); }

  std::unique_ptr<copier::simos::SimKernel> kernel;
  std::unique_ptr<copier::core::CopierService> service;
  std::unique_ptr<copier::core::CopierLinux> glue;
  std::unique_ptr<GlueTap> tap;
  std::vector<std::unique_ptr<copier::apps::AppProcess>> apps;

 private:
  bool threaded_;
};

// Runs `call` under a `name` span on `clock` and adds the derived
// engine.serve / hw.* child spans from the engine clock and copy counters the
// call advanced. Returns what `call` returns.
template <typename Fn>
auto TracedCall(Tracer* tracer, Stack& stack, const char* name, Layer layer,
                const copier::ExecContext* clock, Fn&& call);
// A service.* call: timed on the engine clock.
template <typename Fn>
auto ServiceCall(Tracer* tracer, Stack& stack, const char* name, Fn&& call) {
  return TracedCall(tracer, stack, name, Layer::kService, stack.engine_clock(),
                    std::forward<Fn>(call));
}

// One pass's results.
struct PassOutput {
  // Virtual time (deterministic): timed ops only.
  std::vector<double> latency_us;     // per op, from intended arrival / submit
                                      // (host us on kv-threaded)
  std::vector<double> lag_cycles;     // open loop: server lag behind arrival
  std::vector<double> copy_window_us; // first submit -> last KFUNC, when KFUNCs ran
  double span_us = 0;                 // timed phase span (host us on kv-threaded)
  uint64_t payload_bytes = 0;         // verified payload bytes delivered
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t output_hash = 0;           // FNV-1a over every checked output
  // kv workloads: per-record reply hashes and the final store hash, for the
  // cross-check against apps::RunServeVirtual.
  std::vector<uint64_t> reply_hashes;
  uint64_t store_hash = 0;
  // Host time.
  double setup_s = 0;
  double timed_s = 0;
  // Counter snapshots at the timed phase's boundaries.
  Counters begin;
  Counters end;
};

uint64_t Fnv(const void* data, size_t n, uint64_t hash = 1469598103934665603ull);
template <typename T>
uint64_t FnvValue(const T& value, uint64_t hash) {
  return Fnv(&value, sizeof(value), hash);
}

// ---- kv-zipf / kv-threaded ----------------------------------------------------

struct KvInputs {
  copier::core::ServeWorkload shape;
  std::vector<copier::core::ServeRequest> trace;  // pre-load SETs, then the timed trace
  size_t preload = 0;                             // leading pre-load requests
};
// kv-zipf shape at `mean_gap_cycles`, `requests` timed requests.
KvInputs MakeKvInputs(uint64_t seed, size_t requests, double mean_gap_cycles,
                      size_t connections, double proxy_fraction);

struct KvOptions {
  bool threaded = false;
  size_t threads = 2;
  double ns_per_cycle = 0;            // threaded pacing: host ns per trace cycle
  uint64_t stuck_timeout_ns = 0;      // threaded: a request waiting longer fails
  uint64_t pass_deadline_ns = 0;      // threaded: requests due after it fail unissued
  Tracer* tracer = nullptr;
};
PassOutput RunKvPass(const KvInputs& inputs, const KvOptions& options);

// ---- ipc-pipeline ---------------------------------------------------------------

struct IpcRequest {
  copier::Cycles arrival = 0;
  uint32_t client = 0;
  uint32_t body_bytes = 0;
  bool congruent = false;  // body page-congruent between client buffer and KV window
  uint32_t upstream = 0;
  uint64_t content_offset = 0;  // body = pool[content_offset, +body_bytes)
};
struct IpcInputs {
  std::vector<IpcRequest> requests;
  std::vector<uint8_t> pool;  // body bytes are slices of this pool
};
IpcInputs MakeIpcInputs(uint64_t seed, size_t requests, double mean_gap_cycles);
PassOutput RunIpcPass(const IpcInputs& inputs, Tracer* tracer);

// ---- deep-queue -------------------------------------------------------------------

struct DeepOp {
  enum class Kind : uint8_t { kCopy, kLazy, kHandler, kAbort };
  Kind kind = Kind::kCopy;
  uint64_t dst = 0;  // arena offsets
  uint64_t src = 0;
  uint32_t length = 0;
};
struct DeepWave {
  std::vector<DeepOp> ops;
  std::vector<std::pair<uint64_t, uint32_t>> promotes;  // arena offset, length
};
struct DeepInputs {
  size_t arena_bytes = 0;
  size_t source_bytes = 0;  // [0, source_bytes) is never written
  std::vector<DeepWave> waves;
};
DeepInputs MakeDeepInputs(uint64_t seed, size_t waves);
PassOutput RunDeepPass(const DeepInputs& inputs, Tracer* tracer);

// ---- copy-threaded ----------------------------------------------------------------

struct ThreadedOp {
  uint32_t client = 0;
  uint32_t length = 0;
  uint64_t dst = 0;  // offsets into the client's arena
  uint64_t src = 0;
};
struct ThreadedInputs {
  size_t clients = 0;
  size_t arena_bytes = 0;  // per client
  std::vector<std::vector<ThreadedOp>> waves;
};
ThreadedInputs MakeThreadedInputs(uint64_t seed, size_t waves);
// Runs on a real service thread, started once each wave is queued. The
// checked outputs repeat exactly; the virtual results repeat to within about
// 1% per op (the thread's host timing still moves a few charges).
PassOutput RunThreadedPass(const ThreadedInputs& inputs, Tracer* tracer);

// ---- implementation of ServiceCall ----------------------------------------------

void AddEngineSpans(Tracer* tracer, int32_t service_span, Stack& stack, copier::Cycles before,
                    const copier::core::Engine::Stats& stats_before);

template <typename Fn>
auto TracedCall(Tracer* tracer, Stack& stack, const char* name, Layer layer,
                const copier::ExecContext* clock, Fn&& call) {
  if (tracer == nullptr) {
    return call();
  }
  const copier::Cycles before = stack.engine_clock()->now();
  const copier::core::Engine::Stats stats_before = stack.service->TotalStats();
  int32_t index = -1;
  auto result = [&] {
    ScopedSpan span(tracer, name, layer, clock);
    index = span.index();
    return call();
  }();
  AddEngineSpans(tracer, index, stack, before, stats_before);
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
