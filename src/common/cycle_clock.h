// Cycle-granularity clocks.
//
// Copier measures everything in "cycles". Two clock implementations share the
// Clock interface:
//   * RealCycleClock   — rdtsc (x86) / cntvct (arm) wrapper, used by the real
//                        multi-threaded service and by calibration runs.
//   * VirtualClock     — manually advanced, used by the virtual-time
//                        execution contexts (ExecContext) so figure benches
//                        are deterministic and hardware-independent (see
//                        DESIGN.md §1).
#ifndef COPIER_SRC_COMMON_CYCLE_CLOCK_H_
#define COPIER_SRC_COMMON_CYCLE_CLOCK_H_

#include <cstdint>

namespace copier {

using Cycles = uint64_t;

class Clock {
 public:
  virtual ~Clock() = default;
  virtual Cycles Now() const = 0;
};

// Reads the hardware timestamp counter. Frequency is estimated once at first
// use so cycles can be converted to nanoseconds for reporting.
class RealCycleClock : public Clock {
 public:
  Cycles Now() const override { return ReadTsc(); }

  static Cycles ReadTsc();

  // Estimated TSC frequency in Hz (measured against CLOCK_MONOTONIC).
  static double FrequencyHz();

  static double CyclesToNanos(Cycles cycles) { return cycles * 1e9 / FrequencyHz(); }
  static Cycles NanosToCycles(double nanos) {
    return static_cast<Cycles>(nanos * FrequencyHz() / 1e9);
  }

  static RealCycleClock* Get();
};

// Deterministic clock advanced explicitly by the simulation engine.
class VirtualClock : public Clock {
 public:
  Cycles Now() const override { return now_; }

  void Advance(Cycles cycles) { now_ += cycles; }
  void AdvanceTo(Cycles time) {
    if (time > now_) {
      now_ = time;
    }
  }
  void Reset() { now_ = 0; }

 private:
  Cycles now_ = 0;
};

}  // namespace copier

#endif  // COPIER_SRC_COMMON_CYCLE_CLOCK_H_
