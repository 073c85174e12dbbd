#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

bool PercentileSupported(size_t n, double p, size_t min_beyond) {
  return static_cast<double>(n) * (1.0 - p / 100.0) + 1e-9 >= static_cast<double>(min_beyond);
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

bool BacklogGrows(const std::vector<double>& lags, double slack) {
  const size_t quarter = lags.size() / 4;
  if (quarter < 2) {
    return false;
  }
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < quarter; ++i) {
    first += lags[i];
    last += lags[lags.size() - quarter + i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 2 * first + slack;
}

double SloRate(const std::vector<double>& ladder, double p99_limit_us,
               const std::function<RungResult(double rate)>& run_rung) {
  auto meets = [&](size_t i) {
    const RungResult r = run_rung(ladder[i]);
    return r.p99_us <= p99_limit_us && !r.backlog_grows;
  };
  // Invariant: rungs below `lo` meet the SLO, rungs at or above `hi` fail.
  size_t lo = 0;
  size_t hi = ladder.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (meets(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : ladder[lo - 1];
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, JsonNumber(value));
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonString(value));
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
