#include "support/table.hpp"

#include <cstdio>
#include <sstream>

#include "support/check.hpp"

namespace ptb {

void Table::set_header(std::vector<std::string> cols) { header_ = std::move(cols); }

void Table::add_row(std::vector<std::string> cells) {
  PTB_CHECK_MSG(header_.empty() || cells.size() == header_.size(),
                "table row width differs from its header");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths;
  auto widen = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  out << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << row[i];
      if (i + 1 < row.size())
        out << std::string(widths[i] - row[i].size() + 2, ' ');
    }
    out << "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  }
  for (const auto& r : rows_) emit(r);
  return out.str();
}

void Table::print() const {
  const std::string s = to_string();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

}  // namespace ptb
