#include "src/common/table.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

namespace copier {

std::string TextTable::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TextTable::Pct(double percent, int precision) {
  const std::string num = Num(percent, precision);
  return (num[0] == '-' ? num : "+" + num) + "%";
}

std::string TextTable::Bytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluMiB", static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluKiB", static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) {
        widths[c] = row[c].size();
      }
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };

  emit_row(header_);
  out << "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void TextTable::Print() const { std::fputs(ToString().c_str(), stdout); }

void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace copier
