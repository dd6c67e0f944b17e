// Plain-text table printer used by the bench harness to emit the paper's
// tables and figure series in aligned, diffable form.
#pragma once

#include <string>
#include <vector>

namespace ptb {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> cols);
  /// Once a header is set, every row must have exactly its width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);

  /// Render to stdout.
  void print() const;

  /// Render as a string (used by tests).
  std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ptb
