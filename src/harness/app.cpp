#include "harness/app.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace ptb {

AppState make_app_state(const BHConfig& cfg, int nprocs) {
  AppState st;
  st.cfg = cfg;
  st.init(make_plummer(cfg.n, cfg.seed), nprocs);
  st.cfg = cfg;  // init() overwrote n from the body count; restore the rest
  return st;
}

RunResult collect_run_result(const SimContext& ctx, const AppState& st) {
  RunResult res;
  res.proc_stats = ctx.stats();
  for (int ph = 0; ph < kNumPhases; ++ph) {
    double mx = 0.0;
    for (const auto& ps : res.proc_stats) mx = std::max(mx, ps.phase_ns[ph]);
    res.phase_ns[static_cast<std::size_t>(ph)] = mx;
    if (ph != static_cast<int>(Phase::kOther)) res.total_ns += mx;
  }
  for (int p = 0; p < ctx.nprocs(); ++p) {
    res.clock_ns.push_back(ctx.clock_ns(p));
    res.mem.push_back(ctx.mem().proc_stats(p));
  }
  res.interactions_cell = st.interactions_cell;
  res.interactions_body = st.interactions_body;
  // FNV-1a over 64-bit words: each step is a bijection of the running hash,
  // so a change to any one word always changes the result.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Body& b : st.bodies)
    for (const Vec3* v : {&b.pos, &b.vel, &b.acc})
      for (double x : {v->x, v->y, v->z})
        h = (h ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001b3ull;
  res.bodies_hash = h;
  return res;
}

namespace {

/// Compares fields in order and keeps the first mismatch, named by the
/// current scope ("proc 3 ") and the field.
struct Differ {
  std::string found;
  std::string scope;

  template <class T>
  void field(const char* name, const T& a, const T& b, const char* sub = nullptr) {
    if (!found.empty() || a == b) return;
    std::ostringstream os;
    os.precision(17);
    os << scope << name;
    if (sub != nullptr) os << '[' << sub << ']';
    os << ": " << a << " vs " << b;
    found = os.str();
  }

  template <class T>
  void per_phase(const char* name, const std::array<T, kNumPhases>& a,
                 const std::array<T, kNumPhases>& b) {
    for (int ph = 0; ph < kNumPhases; ++ph)
      field(name, a[static_cast<std::size_t>(ph)], b[static_cast<std::size_t>(ph)],
            phase_name(static_cast<Phase>(ph)));
  }

  void distribution(const char* name, const Distribution& a, const Distribution& b) {
    field(name, a.count(), b.count(), "count");
    field(name, a.stat().sum(), b.stat().sum(), "sum");
    field(name, a.stat().mean(), b.stat().mean(), "mean");
    field(name, a.stat().variance(), b.stat().variance(), "variance");
    field(name, a.stat().min(), b.stat().min(), "min");
    field(name, a.stat().max(), b.stat().max(), "max");
    for (int i = 0; i < Distribution::kBuckets; ++i)
      field(name, a.bucket_count(i), b.bucket_count(i), "bucket");
  }
};

}  // namespace

std::string first_difference(const RunResult& a, const RunResult& b) {
  Differ d;
  d.per_phase("phase_ns", a.phase_ns, b.phase_ns);
  d.field("total_ns", a.total_ns, b.total_ns);
  d.field("proc_stats size", a.proc_stats.size(), b.proc_stats.size());
  d.field("clock_ns size", a.clock_ns.size(), b.clock_ns.size());
  d.field("mem size", a.mem.size(), b.mem.size());
  d.field("interactions_cell size", a.interactions_cell.size(), b.interactions_cell.size());
  d.field("interactions_body size", a.interactions_body.size(), b.interactions_body.size());
  // Sizes agree from here on, so a's bound each vector for both.
  const std::size_t np = std::max({a.proc_stats.size(), a.clock_ns.size(), a.mem.size(),
                                   a.interactions_cell.size(), a.interactions_body.size()});
  for (std::size_t p = 0; p < np && d.found.empty(); ++p) {
    d.scope = "proc " + std::to_string(p) + " ";
    if (p < a.clock_ns.size()) d.field("clock_ns", a.clock_ns[p], b.clock_ns[p]);
    if (p < a.proc_stats.size()) {
      const ProcStats& x = a.proc_stats[p];
      const ProcStats& y = b.proc_stats[p];
      d.per_phase("phase_ns", x.phase_ns, y.phase_ns);
      d.per_phase("mem_stall_ns", x.mem_stall_ns, y.mem_stall_ns);
      d.per_phase("lock_wait_phase_ns", x.lock_wait_phase_ns, y.lock_wait_phase_ns);
      d.per_phase("barrier_wait_phase_ns", x.barrier_wait_phase_ns,
                  y.barrier_wait_phase_ns);
      d.per_phase("lock_acquires", x.lock_acquires, y.lock_acquires);
      d.field("barrier_wait_ns", x.barrier_wait_ns, y.barrier_wait_ns);
      d.field("lock_wait_ns", x.lock_wait_ns, y.lock_wait_ns);
      d.distribution("lock_wait_events", x.lock_wait_events, y.lock_wait_events);
      d.distribution("barrier_wait_events", x.barrier_wait_events, y.barrier_wait_events);
      d.field("barriers", x.barriers, y.barriers);
      d.field("fetch_adds", x.fetch_adds, y.fetch_adds);
    }
    if (p < a.mem.size())
      for (const MemCounterDesc& c : kMemCounters)
        d.field("mem", a.mem[p].*c.field, b.mem[p].*c.field, c.metric);
    if (p < a.interactions_cell.size())
      d.field("interactions_cell", a.interactions_cell[p], b.interactions_cell[p]);
    if (p < a.interactions_body.size())
      d.field("interactions_body", a.interactions_body[p], b.interactions_body[p]);
  }
  d.scope.clear();
  d.field("bodies_hash", a.bodies_hash, b.bodies_hash);
  return d.found;
}

}  // namespace ptb
