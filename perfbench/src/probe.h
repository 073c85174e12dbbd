// Machine-speed probe. The host this benchmark runs on is shared, and its
// speed drifts by tens of percent within a minute. Host-time metrics are
// therefore scaled by the probe: a fixed mix of the operations the simulated
// stack spends host time on (page copies, byte hashing, hash-map updates),
// timed before and after each pass. A host that runs slower slows the probe
// and the pass alike, and the ratio cancels most of it.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

namespace perfbench {

// Probe duration on the reference host (seconds); the scale factor is
// measured / reference, so scaled metrics read in reference-host seconds.
inline constexpr double kProbeReferenceSeconds = 0.010;

// Runs the probe and returns its host seconds (steady clock; the fastest of
// three samples).
double ProbeSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
