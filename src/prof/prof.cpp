#include "prof/prof.hpp"

#include <algorithm>
#include <cstdlib>

#include "mem/model.hpp"
#include "support/check.hpp"

namespace ptb::prof {

std::uint64_t Capture::elapsed_ns() const {
  std::uint64_t e = 0;
  for (std::uint64_t c : final_clock) e = std::max(e, c);
  return e;
}

std::size_t Capture::total_events() const {
  std::size_t n = 0;
  for (const auto& l : log) n += l.size();
  return n;
}

void Recorder::begin_run(int nprocs) {
  PTB_CHECK(nprocs >= 1);
  cap_ = Capture{};
  cap_.nprocs = nprocs;
  cap_.log.assign(static_cast<std::size_t>(nprocs), {});
  cap_.final_clock.assign(static_cast<std::size_t>(nprocs), 0);
  obj_ids_.clear();
  pending_.assign(static_cast<std::size_t>(nprocs), kNoPending);
  phase_.assign(static_cast<std::size_t>(nprocs), Phase::kOther);
}

std::uint32_t Recorder::intern(const void* obj) {
  auto [it, inserted] = obj_ids_.emplace(obj, static_cast<std::uint32_t>(cap_.objs.size()));
  if (inserted) cap_.objs.push_back(obj);
  return it->second;
}

Event& Recorder::push(int p, const Event& e) {
  auto& l = cap_.log[static_cast<std::size_t>(p)];
  l.push_back(e);
  return l.back();
}

void Recorder::lock_acquired(int p, const void* lock, std::uint64_t t, std::uint64_t t_end,
                             Phase ph, std::uint64_t remote_cum) {
  Event e;
  e.kind = EvKind::kLock;
  e.phase = ph;
  e.obj = intern(lock);
  e.t0 = t;
  e.t1 = t;
  e.t2 = t_end;
  e.remote = remote_cum;
  push(p, e);
}

void Recorder::lock_wait_begin(int p, const void* lock, std::uint64_t request_ns, Phase ph) {
  Event e;
  e.kind = EvKind::kLock;
  e.phase = ph;
  e.obj = intern(lock);
  e.t0 = request_ns;
  e.t1 = request_ns;  // patched at grant
  e.t2 = request_ns;  // patched at acquire end
  pending_[static_cast<std::size_t>(p)] =
      static_cast<std::uint32_t>(cap_.log[static_cast<std::size_t>(p)].size());
  push(p, e);
}

void Recorder::lock_grant(int waiter, int granter, std::uint64_t grant_ns) {
  std::uint32_t idx = pending_[static_cast<std::size_t>(waiter)];
  PTB_CHECK_MSG(idx != kNoPending, "lock grant with no pending wait event");
  Event& e = cap_.log[static_cast<std::size_t>(waiter)][idx];
  e.t1 = grant_ns;
  e.cause = granter;
  // The granter's unlock event was recorded immediately before the grant.
  PTB_CHECK(!cap_.log[static_cast<std::size_t>(granter)].empty());
  e.cause_idx =
      static_cast<std::uint32_t>(cap_.log[static_cast<std::size_t>(granter)].size() - 1);
}

void Recorder::lock_acquired_end(int p, std::uint64_t t_end, std::uint64_t remote_cum) {
  std::uint32_t idx = pending_[static_cast<std::size_t>(p)];
  PTB_CHECK_MSG(idx != kNoPending, "lock acquire end with no pending wait event");
  Event& e = cap_.log[static_cast<std::size_t>(p)][idx];
  e.t2 = t_end;
  e.remote = remote_cum;
  pending_[static_cast<std::size_t>(p)] = kNoPending;
}

void Recorder::unlock(int p, const void* lock, std::uint64_t t, std::uint64_t t_end, Phase ph,
                      std::uint64_t remote_cum) {
  Event e;
  e.kind = EvKind::kUnlock;
  e.phase = ph;
  e.obj = intern(lock);
  e.t0 = t;
  e.t1 = t;
  e.t2 = t_end;
  e.remote = remote_cum;
  push(p, e);
}

void Recorder::fetch_add(int p, const void* ctr, std::uint64_t t, std::uint64_t t_end, Phase ph,
                         std::uint64_t remote_cum) {
  Event e;
  e.kind = EvKind::kRmw;
  e.phase = ph;
  e.obj = intern(ctr);
  e.t0 = t;
  e.t1 = t;
  e.t2 = t_end;
  e.remote = remote_cum;
  push(p, e);
}

void Recorder::barrier_arrive(int p, std::uint64_t t, std::uint64_t arrival_ns, Phase ph) {
  Event e;
  e.kind = EvKind::kBarrier;
  e.phase = ph;
  e.t0 = t;
  e.ta = arrival_ns;
  e.t1 = arrival_ns;  // patched at release
  e.t2 = arrival_ns;  // patched at depart
  pending_[static_cast<std::size_t>(p)] =
      static_cast<std::uint32_t>(cap_.log[static_cast<std::size_t>(p)].size());
  push(p, e);
}

void Recorder::barrier_release(std::uint64_t release_ns, int last) {
  std::uint32_t last_idx = pending_[static_cast<std::size_t>(last)];
  PTB_CHECK_MSG(last_idx != kNoPending, "barrier release without the last arriver pending");
  for (int q = 0; q < cap_.nprocs; ++q) {
    std::uint32_t idx = pending_[static_cast<std::size_t>(q)];
    if (idx == kNoPending) continue;
    Event& e = cap_.log[static_cast<std::size_t>(q)][idx];
    if (e.kind != EvKind::kBarrier) continue;  // a lock waiter is not in this barrier
    e.t1 = release_ns;
    if (q != last) {
      e.cause = last;
      e.cause_idx = last_idx;
    }
  }
}

void Recorder::barrier_depart(int p, std::uint64_t t_end, std::uint64_t remote_cum) {
  std::uint32_t idx = pending_[static_cast<std::size_t>(p)];
  PTB_CHECK_MSG(idx != kNoPending, "barrier depart with no pending barrier event");
  Event& e = cap_.log[static_cast<std::size_t>(p)][idx];
  e.t2 = t_end;
  e.remote = remote_cum;
  pending_[static_cast<std::size_t>(p)] = kNoPending;
}

void Recorder::phase_begin(int p, Phase ph, std::uint64_t now, std::uint64_t remote_cum) {
  phase_[static_cast<std::size_t>(p)] = ph;
  Event e;
  e.kind = EvKind::kPhase;
  e.phase = ph;
  e.obj = static_cast<std::uint32_t>(ph);
  e.t0 = e.t1 = e.t2 = now;
  e.remote = remote_cum;
  push(p, e);
}

void Recorder::finish(int p, std::uint64_t now, std::uint64_t remote_cum) {
  Event e;
  e.kind = EvKind::kFinish;
  e.phase = phase_[static_cast<std::size_t>(p)];
  e.t0 = e.t1 = e.t2 = now;
  e.remote = remote_cum;
  push(p, e);
  cap_.final_clock[static_cast<std::size_t>(p)] = now;
}

void Recorder::charge(int p, const void* addr, std::uint64_t cost_ns, std::uint64_t remote_delta,
                      std::uint64_t inval_delta) {
  if (phase_[static_cast<std::size_t>(p)] != Phase::kTreeBuild) return;
  LineStats& ls = cap_.lines[reinterpret_cast<std::uintptr_t>(addr) >> 6];
  ls.tb_stall_ns += cost_ns;
  ls.tb_remote += remote_delta;
  ls.tb_inval += inval_delta;
}

void Recorder::on_charge(const ChargeEvent& e) {
  const std::uint64_t end = e.now + e.cost;
  const std::uint64_t remote = e.after.remote_misses;
  const Phase ph = phase_[static_cast<std::size_t>(e.proc)];
  switch (e.kind) {
    case ChargeKind::kRead:
    case ChargeKind::kWrite:
    case ChargeKind::kReadShared:
      charge(e.proc, e.addr, e.cost, remote - e.before.remote_misses,
             e.after.invalidations_sent - e.before.invalidations_sent);
      break;
    case ChargeKind::kRmw:
      fetch_add(e.proc, e.addr, e.now, end, ph, remote);
      break;
    case ChargeKind::kAcquire:
      // A queued request left its wait event pending (on_lock_request).
      if (pending_[static_cast<std::size_t>(e.proc)] != kNoPending)
        lock_acquired_end(e.proc, end, remote);
      else
        lock_acquired(e.proc, e.addr, e.now, end, ph, remote);
      break;
    case ChargeKind::kRelease:
      unlock(e.proc, e.addr, e.now, end, ph, remote);
      break;
    case ChargeKind::kBarrierArrive:
      barrier_arrive(e.proc, e.now, end, ph);
      break;
    case ChargeKind::kBarrierDepart:
      barrier_depart(e.proc, end, remote);
      break;
  }
}

void Recorder::on_replay(const ReplayEvent& e) {
  PTB_CHECK_MSG(phase_[static_cast<std::size_t>(e.proc)] != Phase::kTreeBuild,
                "prof: a replayed unit in the tree-build phase");
}

void Recorder::on_lock_request(const LockEvent& e) {
  lock_wait_begin(e.proc, e.lock, e.request_ns, phase_[static_cast<std::size_t>(e.proc)]);
}

void Recorder::on_lock_release(const LockEvent& e) {
  // Runs after the releaser's unlock event (its kRelease charge).
  if (e.peer >= 0) lock_grant(e.peer, e.proc, e.grant_ns);
}

void Recorder::on_barrier_release(const BarrierReleaseEvent& e) {
  barrier_release(e.release_ns, e.last);
}

void Recorder::on_phase(const PhaseEvent& e) {
  phase_begin(e.proc, e.to, e.now, e.stats.remote_misses);
}

void Recorder::on_finish(const PhaseEvent& e) {
  finish(e.proc, e.now, e.stats.remote_misses);
}

std::string prof_path_from(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("PTB_PROF");
  return env != nullptr ? std::string(env) : std::string();
}

bool default_prof_enabled() {
  const char* env = std::getenv("PTB_PROF");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

}  // namespace ptb::prof
