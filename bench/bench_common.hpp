// Shared scaffolding for the bench binaries: the --json result sink, a wall
// timer and the banner. The paper's tables and figures come from ptbfig
// (ptbfig.cpp); the other benches measure host cost and check bit-identity.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace ptb::bench {

/// Machine-readable result sink behind the --json=<path> flag: every
/// measured cell is appended as one flat object (config strings + numeric
/// measurements), and save() writes the whole array. The files accumulate
/// the perf trajectory across PRs (e.g. BENCH_sched.json), so each row
/// carries a provenance prefix (git SHA, build type, backend, sweep shape)
/// set once via context() and prepended to every row at save().
class JsonReport {
 public:
  /// Exits (2) if the path is not writable — fail before the (possibly
  /// hours-long) run, not at save() after it.
  void set_path(std::string path) {
    if (!path.empty()) {
      std::FILE* f = std::fopen(path.c_str(), "a");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open --json path for writing: %s\n", path.c_str());
        std::exit(2);
      }
      std::fclose(f);
    }
    path_ = std::move(path);
  }
  bool enabled() const { return !path_.empty(); }

  /// Run-wide provenance key; prepended (in insertion order) to every row.
  JsonReport& context(const std::string& key, const std::string& v) {
    context_.emplace_back(key, quoted(v));
    return *this;
  }

  JsonReport& row() {
    rows_.emplace_back();
    return *this;
  }
  JsonReport& field(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, quoted(v));
    return *this;
  }
  JsonReport& field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  JsonReport& field(const std::string& key, std::int64_t v) {
    rows_.back().emplace_back(key, std::to_string(v));
    return *this;
  }

  /// Writes the accumulated rows; no-op unless --json was given.
  void save() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    PTB_CHECK_MSG(f != nullptr, "cannot open --json output path");
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "  {");
      std::size_t col = 0;
      for (const auto& kv : context_)
        std::fprintf(f, "%s\"%s\": %s", col++ == 0 ? "" : ", ", kv.first.c_str(),
                     kv.second.c_str());
      for (const auto& kv : rows_[r])
        std::fprintf(f, "%s\"%s\": %s", col++ == 0 ? "" : ", ", kv.first.c_str(),
                     kv.second.c_str());
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %zu JSON rows to %s\n", rows_.size(), path_.c_str());
  }

 private:
  // Builds the quoted JSON string in one buffer; the chained operator+ form
  // trips gcc-12's -Wrestrict on the temporary self-append.
  static std::string quoted(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Wall-clock timer for host-side cost of a measured cell.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Header banner shared by all bench binaries.
inline void banner(const std::string& id, const std::string& what) {
  std::printf("### %s — %s\n", id.c_str(), what.c_str());
  std::printf("### (paper: Shan & Singh, IPPS'98; shapes, not absolute times, "
              "are the reproduction target)\n\n");
}

}  // namespace ptb::bench
