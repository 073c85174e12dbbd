// Plain-text table printer for the benchmark harness. Every figure/table
// bench prints its rows through this so bench_output.txt is uniform and easy
// to diff against EXPERIMENTS.md.
#ifndef COPIER_SRC_COMMON_TABLE_H_
#define COPIER_SRC_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace copier {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  // Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 2);
  // Signed percentage: "+3.4%" or "-3.4%", the sign taken from the value.
  static std::string Pct(double percent, int precision = 1);
  static std::string Bytes(uint64_t bytes);  // "4KiB", "256KiB", "1MiB", ...

  std::string ToString() const;
  void Print() const;  // stdout

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Section banner for bench output ("=== Figure 9: ... ===").
void PrintBanner(const std::string& title);

}  // namespace copier

#endif  // COPIER_SRC_COMMON_TABLE_H_
