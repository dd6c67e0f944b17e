#include "trace/trace.hpp"

#include <bit>
#include <cstdlib>

#include "mem/model.hpp"
#include "rt/phase.hpp"
#include "sim/walk_ahead.hpp"
#include "support/check.hpp"

namespace ptb::trace {

Tracer::Tracer(int nprocs, std::size_t capacity_per_proc)
    : nprocs_(nprocs), capacity_(capacity_per_proc) {
  PTB_CHECK(nprocs >= 1);
  buffers_.resize(static_cast<std::size_t>(nprocs));
  dropped_.assign(static_cast<std::size_t>(nprocs), 0);
}

std::uint64_t Tracer::total_events() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b.size();
  return n;
}

void Tracer::clear() {
  for (auto& b : buffers_) b.clear();
  dropped_.assign(dropped_.size(), 0);
  next_flow_id_ = 0;
}

void Tracer::mem_instants(int proc, std::uint64_t now, const MemProcStats& before,
                          const MemProcStats& after) {
  for (const MemCounterDesc& c : kMemCounters) {
    if (c.event == nullptr) continue;
    const std::uint64_t delta = after.*c.field - before.*c.field;
    if (delta != 0) instant(proc, kCatMem, c.event, now, static_cast<std::uint32_t>(delta));
  }
}

void Tracer::on_charge(const ChargeEvent& e) { mem_instants(e.proc, e.now, e.before, e.after); }

void Tracer::on_replay(const ReplayEvent& e) {
  std::size_t h = 0;
  // Writes the held instants of the charges before `end`.
  const auto release = [&](std::size_t end) {
    for (; h < held_.size() && held_[h].charge < end; ++h) push(e.proc, held_[h].event);
  };
  // The counters only grow, so a unit whose last charge left every traced
  // counter where the unit found it has no memory instant at all.
  const MemProcStats& last = e.size == 0 ? e.before : e.after[e.size - 1];
  bool moved = false;
  for (const MemCounterDesc& c : kMemCounters)
    moved |= c.event != nullptr && last.*c.field != e.before.*c.field;
  if (moved) {
    std::uint64_t now = e.now;
    const MemProcStats* before = &e.before;
    for (std::size_t i = 0; i < e.size; ++i) {
      release(i + 1);
      mem_instants(e.proc, now, *before, e.after[i]);
      before = &e.after[i];
      now += e.costs[i] + e.records[i].compute_ns;
    }
  }
  release(~std::size_t{0});
  held_.clear();
}

void Tracer::on_lock_grant(const LockEvent& e) {
  span(e.proc, kCatSync, "lock-wait", e.request_ns, e.now);
}

void Tracer::on_lock_release(const LockEvent& e) {
  if (e.peer >= 0) flow(e.proc, e.peer, kCatSync, "lock-handoff", e.now, e.grant_ns);
}

void Tracer::on_barrier_release(const BarrierReleaseEvent& e) {
  for (std::uint64_t m = e.released; m != 0; m &= m - 1) {
    const int q = std::countr_zero(m);
    const std::uint64_t arrival = e.arrival_ns[q];
    if (arrival != e.release_ns) span(q, kCatSync, "barrier-wait", arrival, e.release_ns);
  }
}

void Tracer::on_phase(const PhaseEvent& e) {
  if (e.now > e.since) span(e.proc, kCatPhase, phase_name(e.from), e.since, e.now);
}

void Tracer::on_switch(const SwitchEvent& e) {
  instant(e.proc, kCatSched, "fiber-switch", e.now);
}

void Tracer::write_chrome_json(std::FILE* f) const {
  std::fprintf(f, "{\n\"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  // Metadata: name the process after the clock domain and each track after
  // its simulated processor so Perfetto shows "proc 0..P-1" lanes.
  sep();
  std::fprintf(f,
               "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"ptb (%s time)\"}}",
               clock_domain_);
  for (int p = 0; p < nprocs_; ++p) {
    sep();
    std::fprintf(f,
                 "{\"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"name\": \"thread_name\", "
                 "\"args\": {\"name\": \"proc %d\"}}",
                 p, p);
  }
  // Chrome trace timestamps are microseconds; emit 3 fractional digits to
  // keep nanosecond resolution.
  for (int p = 0; p < nprocs_; ++p) {
    for (const Event& e : events(p)) {
      sep();
      const double ts_us = static_cast<double>(e.ts_ns) * 1e-3;
      if (e.flow_ph != 0) {
        // Flow halves: "s" on the source track, "f" (binding to the
        // enclosing slice's end) on the sink track, joined by id.
        std::fprintf(f,
                     "{\"ph\": \"%c\", %s\"pid\": 0, \"tid\": %d, \"name\": \"%s\", "
                     "\"cat\": \"%s\", \"ts\": %.3f, \"id\": %u}",
                     e.flow_ph, e.flow_ph == 'f' ? "\"bp\": \"e\", " : "", p, e.name,
                     e.cat, ts_us, e.flow_id);
      } else if (e.count == 0) {
        std::fprintf(f,
                     "{\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"name\": \"%s\", "
                     "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                     p, e.name, e.cat, ts_us, static_cast<double>(e.dur_ns) * 1e-3);
      } else {
        std::fprintf(f,
                     "{\"ph\": \"i\", \"pid\": 0, \"tid\": %d, \"name\": \"%s\", "
                     "\"cat\": \"%s\", \"ts\": %.3f, \"s\": \"t\", "
                     "\"args\": {\"count\": %u}}",
                     p, e.name, e.cat, ts_us, e.count);
      }
    }
    if (dropped(p) != 0) {
      sep();
      std::fprintf(f,
                   "{\"ph\": \"i\", \"pid\": 0, \"tid\": %d, \"name\": \"events "
                   "dropped (buffer full)\", \"cat\": \"%s\", \"ts\": 0.000, "
                   "\"s\": \"t\", \"args\": {\"count\": %llu}}",
                   p, kCatSched, static_cast<unsigned long long>(dropped(p)));
    }
  }
  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": "
                  "{\"clock_domain\": \"%s\"}\n}\n",
               clock_domain_);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return false;
  }
  write_chrome_json(f);
  std::fclose(f);
  return true;
}

std::string Tracer::chrome_json() const {
  // Serialize through a tmpfile so there is exactly one writer implementation.
  std::FILE* f = std::tmpfile();
  PTB_CHECK_MSG(f != nullptr, "trace: cannot create temporary file");
  write_chrome_json(f);
  const long len = std::ftell(f);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::rewind(f);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return out;
}

std::string trace_path_from(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("PTB_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace ptb::trace
