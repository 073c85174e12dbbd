// Statistics the benchmark reports: percentile selection, the SLO-rate
// ladder and its backlog-growth check, and a minimal JSON writer.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty. The
// rank is ceil(p/100 * n), so the result is always an observed sample.
double Percentile(std::vector<double> samples, double p);

// True when at least `min_beyond` of `n` samples lie beyond percentile `p` —
// the rule for reporting a percentile at all (ten samples beyond it).
bool PercentileSupported(size_t n, double p, size_t min_beyond = 10);

double Median(std::vector<double> samples);

// Backlog growth of an open-loop run: `lags` are the per-request server lags
// behind arrival (any unit) in arrival order. The backlog grows when the mean
// lag of the last quarter exceeds twice that of the first quarter plus
// `slack`. Fewer than 8 samples never grow.
bool BacklogGrows(const std::vector<double>& lags, double slack);

// One rung of the SLO ladder as measured.
struct RungResult {
  double p99_us = 0;
  bool backlog_grows = false;
};

// Highest rate of the ascending `ladder` whose run meets the SLO: p99 at or
// under `p99_limit_us` and no backlog growth. Bisects, assuming a rung that
// fails makes every higher rung fail. Returns 0 when the lowest rung fails.
double SloRate(const std::vector<double>& ladder, double p99_limit_us,
               const std::function<RungResult(double rate)>& run_rung);

// Builds one JSON object line; keys keep insertion order.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(const std::string& value);
// Shortest decimal form that reads back as the same double.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
