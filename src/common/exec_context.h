// ExecContext — a cycle-accounted execution context (one simulated CPU
// hardware thread: an app thread, a kernel path running on it, or a Copier
// service thread).
//
// Every simulated operation charges cycles to the context it runs on; the
// virtual-time benches compose end-to-end latencies from these charges plus
// cross-context waits (e.g. csync blocking until a Copier thread publishes a
// segment). Real-thread tests may pass nullptr contexts —
// all charging helpers tolerate that.
#ifndef COPIER_SRC_COMMON_EXEC_CONTEXT_H_
#define COPIER_SRC_COMMON_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>

#include "src/common/cycle_clock.h"

namespace copier {

class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(std::string name) : name_(std::move(name)) {}

  Cycles now() const { return now_; }
  void Charge(Cycles cycles) { now_ += cycles; }
  // Blocks (busy-waits or sleeps) until `time`; the difference is recorded as
  // blocked time so benches can report "thread blocking time" (e.g. §6.1.2 CoW).
  void WaitUntil(Cycles time) {
    if (time > now_) {
      blocked_ += time - now_;
      now_ = time;
    }
  }
  void Reset(Cycles start = 0) {
    now_ = start;
    blocked_ = 0;
  }

  Cycles blocked_cycles() const { return blocked_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  Cycles now_ = 0;
  Cycles blocked_ = 0;
};

// Charge helper tolerating null contexts (real-thread mode).
inline void ChargeCtx(ExecContext* ctx, Cycles cycles) {
  if (ctx != nullptr) {
    ctx->Charge(cycles);
  }
}

inline Cycles CtxNow(const ExecContext* ctx) { return ctx != nullptr ? ctx->now() : 0; }

}  // namespace copier

#endif  // COPIER_SRC_COMMON_EXEC_CONTEXT_H_
