// RelaxedCounter — a monotone statistics counter safe to read from any
// thread while another thread mutates it.
//
// Counter blocks (Engine::Stats, CopierService::SchedStats, IpcFuseStats) are
// written by service threads on their hot paths and aggregated by observers
// (TotalStats, benches) while the threads keep running. Plain uint64_t fields
// make that a data race; a relaxed atomic keeps the write a single unordered
// store/RMW — no fences on x86 — while reads are well-defined. The operators
// mirror plain integer usage, so a counting site reads `++stats_.name`.
//
// Each block is one X-macro list that names every counter once
// (COPIER_ENGINE_COUNTERS, COPIER_SCHED_COUNTERS; COPIER_IPC_FUSE_COUNTERS
// also pairs each name with its event). The plain snapshot struct expands a
// name list with COPIER_COUNTER_FIELD, the live mirror with
// COPIER_RELAXED_COUNTER, and the snapshot and sum functions with one-line
// local macros.
#ifndef COPIER_SRC_COMMON_RELAXED_COUNTER_H_
#define COPIER_SRC_COMMON_RELAXED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace copier {

class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  void operator++() { value_.fetch_add(1, std::memory_order_relaxed); }
  void operator+=(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  RelaxedCounter& operator=(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }
  uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace copier

#define COPIER_COUNTER_FIELD(name) uint64_t name = 0;
#define COPIER_RELAXED_COUNTER(name) ::copier::RelaxedCounter name;

#endif  // COPIER_SRC_COMMON_RELAXED_COUNTER_H_
