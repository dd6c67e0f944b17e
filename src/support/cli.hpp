// Minimal command-line flag parser shared by benches and examples.
//
// Supports --flag=value, --flag value, and boolean --flag forms. Unknown
// flags, positional arguments and malformed values are errors (exit 2) so
// that typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ptb {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Declare a flag with a default; returns the parsed value. A given value
  /// must be the whole token: an integer or a double (std::from_chars), or
  /// true/false/1/0/yes/no for a bool. Anything else prints
  /// `bad --<flag>: '<value>'` and exits 2.
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help);
  std::int64_t get_int(const std::string& name, std::int64_t def, const std::string& help);
  double get_double(const std::string& name, double def, const std::string& help);
  bool get_bool(const std::string& name, bool def, const std::string& help);

  /// Parse a comma-separated list of integers, e.g. "8192,16384,65536". An
  /// empty item, or an empty given value, is malformed; an empty `def` gives
  /// an empty list when the flag is absent.
  std::vector<std::int64_t> get_int_list(const std::string& name, const std::string& def,
                                         const std::string& help);

  /// get_int and get_int_list for counts that must lie in [lo, hi]. A value
  /// outside prints `bad --<flag>: '<value>' (must be >= <lo>)`, or `<= <hi>`,
  /// with "every entry" before "must" for a list, and exits 2. The default
  /// `hi` keeps the value within an int.
  static constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  std::int64_t get_int(const std::string& name, std::int64_t def, const std::string& help,
                       std::int64_t lo, std::int64_t hi = kIntMax);
  std::vector<std::int64_t> get_int_list(const std::string& name, const std::string& def,
                                         const std::string& help, std::int64_t lo,
                                         std::int64_t hi = kIntMax);
  /// get_double for a finite value of at least `lo`: NaN or an infinity
  /// prints `bad --<flag>: '<value>' (must be finite)`, a smaller value
  /// `(must be >= <lo>)`, and exits 2.
  double get_double(const std::string& name, double def, const std::string& help, double lo);

  /// Free-form text printed after the flag list on --help (environment
  /// variables, exit-code contract, examples). May be called repeatedly;
  /// blocks are printed in call order.
  void epilogue(std::string text);

  /// Call after all get_* declarations. Prints usage and exits on --help;
  /// aborts on unknown flags.
  void finish();

  const std::string& program() const { return program_; }

 private:
  /// The value given for `name`, or `def` when the flag is absent.
  const std::string& given_or(const std::string& name, const std::string& def) const;

  struct HelpEntry {
    std::string name;
    std::string def;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> args_;   // raw --name -> value
  std::map<std::string, bool> consumed_;
  std::vector<HelpEntry> help_;
  std::string epilogue_;
  bool want_help_ = false;
};

}  // namespace ptb
