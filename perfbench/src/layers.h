// Per-layer metrics of a traced pass: span totals per op, counter deltas
// over the timed phase, per-layer self-time medians and the share of virtual
// latency the spans cover.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Every per-layer metric, in a fixed order, for one traced pass. Metrics of a
// layer the workload does not exercise read 0.
std::vector<LayerMetric> LayerMetrics(const PassOutput& pass, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
