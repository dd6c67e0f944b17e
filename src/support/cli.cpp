#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace ptb {

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "ptb") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      want_help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: '%s' (flags start with --)\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      args_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args_[arg] = argv[++i];
    } else {
      args_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help) {
  help_.push_back({name, def, help});
  auto it = args_.find(name);
  if (it == args_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& v) {
  std::fprintf(stderr, "bad --%s: '%s'\n", name.c_str(), v.c_str());
  std::exit(2);
}

/// Exits 2 unless lo <= x <= hi; `v` is the value as given.
void require_in(const std::string& name, const std::string& v, std::int64_t x,
                std::int64_t lo, std::int64_t hi, const char* every) {
  if (x >= lo && x <= hi) return;
  std::fprintf(stderr, "bad --%s: '%s' (%smust be %s %lld)\n", name.c_str(), v.c_str(), every,
               x < lo ? ">=" : "<=", static_cast<long long>(x < lo ? lo : hi));
  std::exit(2);
}

/// All of `v` as a T; nullopt when `v` is empty or has anything after the number.
template <typename T>
std::optional<T> parse_whole(std::string_view v) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return out;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t def, const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  if (!args_.count(name)) return def;
  if (const auto x = parse_whole<std::int64_t>(v)) return *x;
  bad_value(name, v);
}

double Cli::get_double(const std::string& name, double def, const std::string& help) {
  const std::string v = get_string(name, std::to_string(def), help);
  if (!args_.count(name)) return def;
  if (const auto x = parse_whole<double>(v)) return *x;
  bad_value(name, v);
}

bool Cli::get_bool(const std::string& name, bool def, const std::string& help) {
  const std::string v = get_string(name, def ? "true" : "false", help);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v);
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name, const std::string& def,
                                            const std::string& help) {
  const std::string v = get_string(name, def, help);
  std::vector<std::int64_t> out;
  if (!args_.count(name) && v.empty()) return out;
  const std::string_view all(v);
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(all.find(',', pos), all.size());
    const auto x = parse_whole<std::int64_t>(all.substr(pos, comma - pos));
    if (!x) bad_value(name, v);
    out.push_back(*x);
    if (comma == all.size()) return out;
    pos = comma + 1;
  }
}

const std::string& Cli::given_or(const std::string& name, const std::string& def) const {
  const auto it = args_.find(name);
  return it != args_.end() ? it->second : def;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def, const std::string& help,
                          std::int64_t lo, std::int64_t hi) {
  const std::int64_t x = get_int(name, def, help);
  require_in(name, given_or(name, std::to_string(def)), x, lo, hi, "");
  return x;
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name, const std::string& def,
                                            const std::string& help, std::int64_t lo,
                                            std::int64_t hi) {
  std::vector<std::int64_t> out = get_int_list(name, def, help);
  for (std::int64_t x : out) require_in(name, given_or(name, def), x, lo, hi, "every entry ");
  return out;
}

double Cli::get_double(const std::string& name, double def, const std::string& help,
                       double lo) {
  const double x = get_double(name, def, help);
  if (std::isfinite(x) && x >= lo) return x;
  const std::string v = given_or(name, std::to_string(def));
  if (!std::isfinite(x))
    std::fprintf(stderr, "bad --%s: '%s' (must be finite)\n", name.c_str(), v.c_str());
  else
    std::fprintf(stderr, "bad --%s: '%s' (must be >= %g)\n", name.c_str(), v.c_str(), lo);
  std::exit(2);
}

void Cli::epilogue(std::string text) {
  if (!epilogue_.empty()) epilogue_ += "\n";
  epilogue_ += std::move(text);
}

void Cli::finish() {
  if (want_help_) {
    std::printf("Usage: %s [flags]\n", program_.c_str());
    for (const auto& h : help_) {
      std::printf("  --%-20s (default: %s) %s\n", h.name.c_str(), h.def.c_str(),
                  h.help.c_str());
    }
    if (!epilogue_.empty()) std::printf("\n%s\n", epilogue_.c_str());
    std::exit(0);
  }
  for (const auto& [name, value] : args_) {
    (void)value;
    if (!consumed_.count(name)) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n", name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace ptb
