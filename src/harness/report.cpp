#include "harness/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "support/table.hpp"

namespace ptb {

std::string fmt_speedup(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

std::string fmt_percent(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

std::string fmt_seconds(double s) {
  char buf[32];
  if (s >= 1.0)
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  else if (s >= 1e-3)
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  return buf;
}

Breakdown breakdown_from(const trace::MetricsRegistry& m, int nprocs) {
  Breakdown b;
  const double np = nprocs > 0 ? static_cast<double>(nprocs) : 1.0;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (ph == static_cast<int>(Phase::kOther)) continue;  // warm-up
    const trace::Labels f{{"phase", phase_name(static_cast<Phase>(ph))}};
    b.total_s += m.sum("time.phase_ns", f);
    b.mem_stall_s += m.sum("time.mem_stall_ns", f);
    b.lock_wait_s += m.sum("sync.lock_wait_ns", f);
    b.barrier_wait_s += m.sum("sync.barrier_wait_ns", f);
  }
  b.total_s *= 1e-9 / np;
  b.mem_stall_s *= 1e-9 / np;
  b.lock_wait_s *= 1e-9 / np;
  b.barrier_wait_s *= 1e-9 / np;
  b.busy_s = b.total_s - b.mem_stall_s - b.lock_wait_s - b.barrier_wait_s;
  return b;
}

std::string fmt_wait(const WaitSummary& w) {
  if (w.events == 0) return "none";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "mean=%s p50=%s p95=%s p99=%s max=%s (x%llu)",
                fmt_seconds(w.mean_s).c_str(), fmt_seconds(w.p50_s).c_str(),
                fmt_seconds(w.p95_s).c_str(), fmt_seconds(w.p99_s).c_str(),
                fmt_seconds(w.max_s).c_str(),
                static_cast<unsigned long long>(w.events));
  return buf;
}

std::string summarize(const ExperimentSpec& spec, const ExperimentResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%-13s %-8s n=%-7d p=%-3d seq=%s par=%s speedup=%s treebuild=%s "
                "lockwait[%s] barwait[%s]",
                spec.platform.c_str(), algorithm_name(spec.algorithm), spec.n, spec.nprocs,
                fmt_seconds(r.seq_seconds).c_str(), fmt_seconds(r.par_seconds).c_str(),
                fmt_speedup(r.speedup).c_str(), fmt_percent(r.treebuild_fraction).c_str(),
                fmt_wait(r.lock_wait).c_str(), fmt_wait(r.barrier_wait).c_str());
  std::string line = buf;
  const double icell = r.metrics.sum("forces.interactions", {{"kind", "cell"}});
  const double ibody = r.metrics.sum("forces.interactions", {{"kind", "body"}});
  if (icell + ibody > 0.0) {
    std::snprintf(buf, sizeof(buf), " interactions[cell=%.0f body=%.0f]", icell, ibody);
    line += buf;
  }
  if (r.race.enabled) {
    std::snprintf(buf, sizeof(buf), " races=%llu",
                  static_cast<unsigned long long>(r.race.races));
    line += buf;
  }
  if (r.sight.enabled) {
    std::snprintf(buf, sizeof(buf), " sight[lines=%llu false-sharing=%zu/%llu]",
                  static_cast<unsigned long long>(r.sight.lines_observed),
                  r.sight.false_sharing.size(),
                  static_cast<unsigned long long>(r.sight.false_sharing_hits));
    line += buf;
  }
  return line;
}

void print_profile(const prof::Profile& p) {
  if (!p.enabled) return;
  const double total_s = p.elapsed_ns * 1e-9;
  const auto share = [&](std::uint64_t ns) {
    return fmt_percent(p.elapsed_ns > 0 ? static_cast<double>(ns) /
                                              static_cast<double>(p.elapsed_ns)
                                        : 0.0);
  };

  Table cp("critical path (longest dependent chain through virtual time)");
  cp.set_header({"entered via", "seconds", "share", "edges"});
  cp.add_row({"run start", fmt_seconds(p.cp.via_start_ns * 1e-9),
              share(p.cp.via_start_ns),
              std::to_string(p.cp.segments.empty() ? 0 : 1)});
  cp.add_row({"lock handoff", fmt_seconds(p.cp.via_lock_ns * 1e-9),
              share(p.cp.via_lock_ns), std::to_string(p.cp.lock_edges)});
  cp.add_row({"barrier release", fmt_seconds(p.cp.via_barrier_ns * 1e-9),
              share(p.cp.via_barrier_ns), std::to_string(p.cp.barrier_edges)});
  cp.add_row({"total", fmt_seconds(total_s), fmt_percent(1.0),
              std::to_string(p.cp.segments.size()) + " segs"});
  cp.print();

  Table byphase("critical path by phase");
  byphase.set_header({"phase", "seconds", "share", "via lock", "via barrier"});
  for (int ph = 0; ph < kNumPhases; ++ph) {
    const auto pi = static_cast<std::size_t>(ph);
    if (p.cp.phase_ns[pi] == 0) continue;
    byphase.add_row({phase_name(static_cast<Phase>(ph)),
                     fmt_seconds(p.cp.phase_ns[pi] * 1e-9), share(p.cp.phase_ns[pi]),
                     fmt_seconds(p.cp.phase_via_lock_ns[pi] * 1e-9),
                     fmt_seconds(p.cp.phase_via_barrier_ns[pi] * 1e-9)});
  }
  byphase.print();

  if (!p.locks.empty()) {
    Table locks("top contended locks (whole run)");
    locks.set_header(
        {"lock", "depth", "acquires", "contended", "wait", "cp edges", "cp time"});
    for (const prof::LockRow& lr : p.locks)
      locks.add_row({lr.name, lr.depth >= 0 ? std::to_string(lr.depth) : "-",
                     std::to_string(lr.acquires), std::to_string(lr.contended),
                     fmt_seconds(lr.wait_ns * 1e-9), std::to_string(lr.cp_edges),
                     fmt_seconds(lr.cp_ns * 1e-9)});
    locks.print();
  }

  if (!p.depth.empty()) {
    Table depth("contention by tree depth (measured tree-build phase)");
    depth.set_header({"depth", "acquires", "contended", "lock wait", "remote misses",
                      "invalidations", "mem stall"});
    for (const prof::DepthRow& dr : p.depth)
      depth.add_row({dr.depth >= 0 ? std::to_string(dr.depth) : "other",
                     std::to_string(dr.acquires), std::to_string(dr.contended),
                     fmt_seconds(dr.lock_wait_ns * 1e-9),
                     std::to_string(dr.remote_misses),
                     std::to_string(dr.invalidations),
                     fmt_seconds(dr.mem_stall_ns * 1e-9)});
    depth.print();
  }

  if (!p.whatifs.empty()) {
    Table wi("causal what-if predictions (lower-bound estimates)");
    wi.set_header({"scenario", "predicted", "speedup"});
    for (const prof::WhatIf& w : p.whatifs)
      wi.add_row({prof::scenario_name(w.scenario), fmt_seconds(w.predicted_ns * 1e-9),
                  fmt_speedup(w.speedup)});
    wi.print();
  }
}

void print_sight(const sight::SightReport& r) {
  if (!r.enabled) return;
  using ClassRow = std::array<std::uint64_t, sight::kNumClasses>;
  // Shared-class columns (kUntouched never appears in report rows).
  static constexpr sight::LineClass kCols[] = {
      sight::LineClass::kPrivate,        sight::LineClass::kReadShared,
      sight::LineClass::kProducerConsumer, sight::LineClass::kMigratory,
      sight::LineClass::kPingPong,
  };
  const auto class_cells = [&](const ClassRow& row, std::vector<std::string>& out) {
    std::uint64_t total = 0;
    for (sight::LineClass c : kCols) {
      const std::uint64_t v = row[static_cast<std::size_t>(c)];
      total += v;
      out.push_back(v > 0 ? std::to_string(v) : "-");
    }
    out.push_back(std::to_string(total));
  };

  // Whole-run classification per (scope, depth): the per-depth sharing
  // heatmap — tree-cell lines keyed by depth, everything else by region.
  std::map<std::pair<std::string, int>, ClassRow> scopes;
  std::map<int, ClassRow> phases;
  for (const sight::ClassCell& c : r.classes) {
    if (c.phase == -1)
      scopes[{c.scope, c.depth}][static_cast<std::size_t>(c.cls)] += c.lines;
    else
      phases[c.phase][static_cast<std::size_t>(c.cls)] += c.lines;
  }

  Table byscope("sharing classification by data structure (whole run, 64B lines)");
  byscope.set_header({"scope", "depth", "private", "read-shared", "prod-cons",
                      "migratory", "ping-pong", "lines"});
  for (const auto& [key, row] : scopes) {
    std::vector<std::string> cells{key.first,
                                   key.second >= 0 ? std::to_string(key.second) : "-"};
    class_cells(row, cells);
    byscope.add_row(cells);
  }
  byscope.print();

  Table byphase("sharing classification by phase (lines touched in phase)");
  byphase.set_header({"phase", "private", "read-shared", "prod-cons", "migratory",
                      "ping-pong", "lines"});
  for (const auto& [ph, row] : phases) {
    std::vector<std::string> cells{phase_name(static_cast<Phase>(ph))};
    class_cells(row, cells);
    byphase.add_row(cells);
  }
  byphase.print();

  if (!r.false_sharing.empty()) {
    Table fs("false sharing: distinct objects written by distinct procs within " +
             std::to_string(r.window_ns) + "ns");
    fs.set_header({"region", "line", "cell", "objects", "procs", "hits"});
    const std::size_t shown = std::min<std::size_t>(r.false_sharing.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      const sight::Finding& f = r.false_sharing[i];
      fs.add_row({f.region, std::to_string(f.line), f.cell.empty() ? "-" : f.cell,
                  std::to_string(f.objects.size()), std::to_string(f.procs.size()),
                  std::to_string(f.hits)});
    }
    fs.print();
    if (shown < r.false_sharing.size())
      std::printf("  ... and %zu more falsely-shared lines\n",
                  r.false_sharing.size() - shown);
  } else {
    std::printf("no false sharing detected (window %lluns)\n",
                static_cast<unsigned long long>(r.window_ns));
  }

  if (!r.working_set.empty()) {
    // Aggregate per phase: the working set is a per-processor notion, so show
    // the per-processor max alongside merged reuse-distance quantiles.
    std::map<int, std::pair<std::uint64_t, std::uint64_t>> ws;  // max lines, cold
    std::map<int, Distribution> reuse;
    for (const sight::WorkingSetRow& w : r.working_set) {
      auto& [mx, cold] = ws[w.phase];
      mx = std::max(mx, w.distinct_lines);
      cold += w.cold;
      reuse[w.phase].merge(w.reuse);
    }
    Table t("working set by phase (64B lines; distinct = max over procs)");
    t.set_header({"phase", "distinct lines", "cold", "reuse p50", "reuse p95", "samples"});
    for (const auto& [ph, v] : ws) {
      const Distribution& d = reuse[ph];
      t.add_row({phase_name(static_cast<Phase>(ph)), std::to_string(v.first),
                 std::to_string(v.second),
                 d.count() > 0 ? Table::num(d.p50(), 0) : "-",
                 d.count() > 0 ? Table::num(d.p95(), 0) : "-",
                 std::to_string(d.count())});
    }
    t.print();
  }
}

void print_anatomy(const anatomy::Ledger& led) {
  if (!led.enabled) return;
  const double pt = static_cast<double>(led.nprocs) * led.total_ns;
  const auto share = [&](double ns) { return fmt_percent(pt > 0.0 ? ns / pt : 0.0); };

  Table totals("anatomy ledger: every cycle of every processor, p*T_p total");
  totals.set_header({"category", "seconds", "share"});
  for (int c = 0; c < anatomy::kNumCategories; ++c) {
    const auto cat = static_cast<anatomy::Category>(c);
    const double ns = led.category_ns(cat);
    totals.add_row({anatomy::category_name(cat), fmt_seconds(ns * 1e-9), share(ns)});
  }
  totals.add_row({"imbalance (barrier+skew)", fmt_seconds(led.imbalance_ns() * 1e-9),
                  share(led.imbalance_ns())});
  totals.add_row({"p * T_p", fmt_seconds(pt * 1e-9), fmt_percent(1.0)});
  totals.print();

  Table grid("anatomy ledger by phase (seconds, summed over processors)");
  grid.set_header({"phase", "busy", "mem local", "mem remote", "lock", "barrier",
                   "skew", "p * phase"});
  for (int ph = 0; ph < kNumPhases; ++ph) {
    if (ph == static_cast<int>(Phase::kOther)) continue;
    const auto phase = static_cast<Phase>(ph);
    if (led.phase_ns[static_cast<std::size_t>(ph)] == 0.0) continue;
    std::vector<std::string> cells{phase_name(phase)};
    for (int c = 0; c < anatomy::kNumCategories; ++c)
      cells.push_back(fmt_seconds(
          led.phase_category_ns(phase, static_cast<anatomy::Category>(c)) * 1e-9));
    cells.push_back(fmt_seconds(static_cast<double>(led.nprocs) *
                                led.phase_ns[static_cast<std::size_t>(ph)] * 1e-9));
    grid.add_row(cells);
  }
  grid.print();
}

void print_waterfall(const anatomy::Waterfall& w) {
  if (!w.enabled) return;
  Table t("speedup-loss waterfall: p*T_p - T_1 = " + fmt_seconds(w.loss_ns * 1e-9) +
          " attributed per category (p=" + std::to_string(w.procs) + ")");
  t.set_header({"category", "delta seconds", "share of loss"});
  for (int c = 0; c < anatomy::kNumCategories; ++c) {
    const auto cat = static_cast<anatomy::Category>(c);
    const double d = w.delta[static_cast<std::size_t>(c)];
    t.add_row({anatomy::category_name(cat), fmt_seconds(d * 1e-9),
               fmt_percent(w.loss_ns != 0.0 ? d / w.loss_ns : 0.0)});
  }
  t.add_row({"total loss", fmt_seconds(w.loss_ns * 1e-9), fmt_percent(1.0)});
  t.print();
}

}  // namespace ptb
