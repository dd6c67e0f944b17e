#include "race/race.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "support/check.hpp"
#include "trace/trace.hpp"

namespace ptb::race {

// --- LocksetTable -----------------------------------------------------------

std::uint32_t LocksetTable::intern(std::vector<std::uintptr_t> sorted) {
  if (sorted.empty()) return kEmpty;
  auto it = ids_.find(sorted);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(sets_.size());
  ids_.emplace(sorted, id);
  sets_.push_back(std::move(sorted));
  return id;
}

std::uint32_t LocksetTable::add(std::uint32_t set, std::uintptr_t lock) {
  std::vector<std::uintptr_t> s = sets_[set];
  auto it = std::lower_bound(s.begin(), s.end(), lock);
  if (it != s.end() && *it == lock) return set;  // already a member
  s.insert(it, lock);
  return intern(std::move(s));
}

std::uint32_t LocksetTable::remove(std::uint32_t set, std::uintptr_t lock) {
  std::vector<std::uintptr_t> s = sets_[set];
  auto it = std::lower_bound(s.begin(), s.end(), lock);
  if (it == s.end() || *it != lock) return set;  // not a member
  s.erase(it);
  return intern(std::move(s));
}

std::uint32_t LocksetTable::intersect(std::uint32_t a, std::uint32_t b) {
  if (a == b) return a;
  if (a == kEmpty || b == kEmpty) return kEmpty;
  const auto& sa = sets_[a];
  const auto& sb = sets_[b];
  std::vector<std::uintptr_t> out;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(out));
  return intern(std::move(out));
}

// --- RaceDetector -----------------------------------------------------------

RaceDetector::RaceDetector(int nprocs) : nprocs_(nprocs) {
  PTB_CHECK(nprocs >= 1 && nprocs < (1 << epoch::kProcBits));
  PTB_CHECK(kNumPhases <= (1 << epoch::kPhaseBits));
  regions_.set_block_bytes(kGranuleBytes);
  const auto np = static_cast<std::size_t>(nprocs_);
  vc_.assign(np, VectorClock(nprocs_));
  epoch_.assign(np, 0);
  phase_.assign(np, Phase::kOther);
  held_.assign(np, LocksetTable::kEmpty);
  for (auto& b : bgen_) b.acc = VectorClock(nprocs_);
  pgen_.assign(np, 0);
  // Clocks start at 1 so a packed epoch is never epoch::kNone.
  for (int p = 0; p < nprocs_; ++p) {
    vc_[static_cast<std::size_t>(p)].set(p, 1);
    refresh_epoch(p);
  }
  report_.enabled = true;
}

void RaceDetector::on_region(const RegionEvent& e) {
  regions_.add(e.base, e.bytes, e.policy, e.fixed_home, e.name, nprocs_);
  // Regions only grow (first_block is append-ordered), so existing shadow
  // indices stay valid; new granules start untouched.
  shadow_.grow(regions_.total_blocks());
}

void RaceDetector::on_charge(const ChargeEvent& e) {
  switch (e.kind) {
    case ChargeKind::kRead:
    case ChargeKind::kWrite: {
      const bool is_write = e.kind == ChargeKind::kWrite;
      if (e.sync != nullptr) {
        // Atomic accesses synchronize; they are not recorded in the plain
        // shadow (classic FastTrack — mixed atomic/plain access to the SAME
        // word would go unchecked, a documented limitation; the builders
        // never do that).
        atomic(e.proc, e.sync, is_write);
        break;
      }
      const int races = plain(e.proc, e.addr, e.bytes, is_write, e.now);
      if (races != 0 && tracer_ != nullptr)
        tracer_->instant(e.proc, trace::kCatRace, "data-race", e.now,
                         static_cast<std::uint32_t>(races));
      break;
    }
    case ChargeKind::kRmw:
      rmw(e.proc, e.addr);
      break;
    case ChargeKind::kAcquire:
      lock_acquire(e.proc, e.addr);
      break;
    case ChargeKind::kRelease:
      lock_release(e.proc, e.addr);
      break;
    case ChargeKind::kBarrierArrive:
      barrier_arrive(e.proc);
      break;
    case ChargeKind::kBarrierDepart:
      barrier_depart(e.proc);
      break;
    case ChargeKind::kReadShared:
      // Never delivered (unordered_use() is kNone), and deliberately
      // unchecked: see the header comment.
      break;
  }
}

void RaceDetector::on_phase(const PhaseEvent& e) {
  phase_[static_cast<std::size_t>(e.proc)] = e.to;
  refresh_epoch(e.proc);
}

VectorClock& RaceDetector::sync_clock(const void* addr) {
  auto it = syncs_.find(addr);
  if (it == syncs_.end())
    it = syncs_.emplace(addr, VectorClock(nprocs_)).first;
  return it->second;
}

/// Release semantics: publish the releasing processor's knowledge, then tick
/// its own clock so post-release accesses are not covered by the handoff.
void RaceDetector::release_into(int proc, VectorClock& target) {
  auto& c = vc_[static_cast<std::size_t>(proc)];
  target.assign(c);
  c.increment(proc);
  refresh_epoch(proc);
}

void RaceDetector::lock_acquire(int proc, const void* lock) {
  ++report_.lock_acquires;
  const auto pi = static_cast<std::size_t>(proc);
  vc_[pi].join(sync_clock(lock));
  refresh_epoch(proc);
  const auto key = reinterpret_cast<std::uintptr_t>(lock);
  lock_ids_.emplace(key, static_cast<int>(lock_ids_.size()));
  held_[pi] = locksets_.add(held_[pi], key);
}

void RaceDetector::lock_release(int proc, const void* lock) {
  ++report_.lock_releases;
  const auto pi = static_cast<std::size_t>(proc);
  release_into(proc, sync_clock(lock));
  held_[pi] = locksets_.remove(held_[pi], reinterpret_cast<std::uintptr_t>(lock));
}

void RaceDetector::atomic(int proc, const void* sync, bool is_write) {
  ++report_.atomics;
  if (is_write) {
    release_into(proc, sync_clock(sync));  // ordered_store = release
  } else {
    vc_[static_cast<std::size_t>(proc)].join(sync_clock(sync));  // = acquire
    refresh_epoch(proc);
  }
}

void RaceDetector::rmw(int proc, const void* sync) {
  ++report_.atomics;
  // fetch_add is acquire+release on the counter.
  VectorClock& s = sync_clock(sync);
  vc_[static_cast<std::size_t>(proc)].join(s);
  release_into(proc, s);
}

void RaceDetector::barrier_arrive(int proc) {
  ++report_.barriers;
  BarrierGen& cur = bgen_[bcur_];
  if (cur.departing) {
    // First arrival of the next generation while stragglers still depart
    // the previous one: flip to the other slot.
    bcur_ ^= 1;
    BarrierGen& next = bgen_[bcur_];
    next.acc.clear();
    next.departing = false;
  }
  bgen_[bcur_].acc.join(vc_[static_cast<std::size_t>(proc)]);
  pgen_[static_cast<std::size_t>(proc)] = static_cast<std::uint8_t>(bcur_);
}

void RaceDetector::barrier_depart(int proc) {
  const auto pi = static_cast<std::size_t>(proc);
  BarrierGen& gen = bgen_[pgen_[pi]];
  gen.departing = true;
  vc_[pi].join(gen.acc);
  vc_[pi].increment(proc);
  refresh_epoch(proc);
}

void RaceDetector::granule_location(std::size_t g, std::string& region,
                                    std::size_t& offset) const {
  for (const Region& r : regions_.regions()) {
    if (g >= r.first_block && g < r.first_block + r.num_blocks) {
      region = r.name;
      // The granule grid is aligned to absolute addresses, so recover the
      // granule's address and subtract the region base.
      const std::uintptr_t addr =
          (r.base / kGranuleBytes + (g - r.first_block)) * kGranuleBytes;
      offset = addr >= r.base ? addr - r.base : 0;
      return;
    }
  }
  region = "<unknown>";
  offset = 0;
}

std::string RaceDetector::lock_name(std::uintptr_t lock) const {
  std::string region;
  std::size_t off = 0;
  std::size_t first = 0, last = 0;
  int home = 0;
  if (regions_.resolve_range(reinterpret_cast<const void*>(lock), 1, nprocs_, first,
                              last, home)) {
    granule_location(first, region, off);
    std::ostringstream os;
    os << region << "+" << off;
    return os.str();
  }
  // Never print the host address: it varies across processes under ASLR and
  // would make otherwise-identical race reports uncomparable. The intern id
  // follows first-acquisition order, which is virtual-time deterministic.
  std::ostringstream os;
  const auto it = lock_ids_.find(lock);
  os << "lock#" << (it != lock_ids_.end() ? it->second : -1);
  return os.str();
}

void RaceDetector::record_race(std::size_t g, const Shadow& s, std::uint64_t first_epoch,
                               bool first_write, int proc, bool second_write,
                               std::uint64_t now) {
  if (!reported_.insert(g).second) return;  // one report per granule
  ++report_.races;
  if (report_.top.size() >= RaceReport::kMaxStored) return;
  Race r;
  granule_location(g, r.region, r.offset);
  r.first_proc = epoch::proc_of(first_epoch);
  r.first_phase = epoch::phase_of(first_epoch);
  r.first_write = first_write;
  r.second_proc = proc;
  r.second_phase = phase_[static_cast<std::size_t>(proc)];
  r.second_write = second_write;
  r.when_ns = now;
  const std::uint32_t held = held_[static_cast<std::size_t>(proc)];
  for (std::uintptr_t lk : locksets_.contents(held)) r.held_locks.push_back(lock_name(lk));
  r.lockset_consistent =
      s.lockset_set() && locksets_.intersect(s.lockset(), held) != LocksetTable::kEmpty;
  report_.top.push_back(std::move(r));
}

int RaceDetector::check_write(std::size_t g, Shadow& s, int proc, std::uint64_t now) {
  const std::uint64_t e = cur_epoch(proc);
  if (s.w == e) return 0;  // same-epoch fast path
  int races = 0;
  const VectorClock& c = vc_[static_cast<std::size_t>(proc)];
  // write-write
  if (s.w != epoch::kNone) {
    const int wp = epoch::proc_of(s.w);
    if (wp != proc && !c.covers(epoch::clock_of(s.w), wp)) {
      record_race(g, s, s.w, /*first_write=*/true, proc, /*second_write=*/true, now);
      ++races;
    }
  }
  // read(s)-write
  if (s.r == kReadShared) {
    const ReadVC& rv = rvcs_[s.rvc];
    for (int q = 0; q < nprocs_; ++q) {
      const std::uint64_t re = rv.e[static_cast<std::size_t>(q)];
      if (q == proc || re == epoch::kNone) continue;
      if (!c.covers(epoch::clock_of(re), q)) {
        record_race(g, s, re, /*first_write=*/false, proc, /*second_write=*/true, now);
        ++races;
        break;  // one witness suffices (the granule is deduped anyway)
      }
    }
  } else if (s.r != epoch::kNone) {
    const int rp = epoch::proc_of(s.r);
    if (rp != proc && !c.covers(epoch::clock_of(s.r), rp)) {
      record_race(g, s, s.r, /*first_write=*/false, proc, /*second_write=*/true, now);
      ++races;
    }
  }
  // A successful write dominates all prior accesses; drop the read state so
  // the shared-read vector can be garbage (it is never consulted again).
  s.w = e;
  s.r = epoch::kNone;
  return races;
}

int RaceDetector::check_read(std::size_t g, Shadow& s, int proc, std::uint64_t now) {
  const std::uint64_t e = cur_epoch(proc);
  if (s.r == e) return 0;  // same-epoch fast path
  const auto pi = static_cast<std::size_t>(proc);
  if (s.r == kReadShared && rvcs_[s.rvc].e[pi] == e) return 0;
  int races = 0;
  const VectorClock& c = vc_[pi];
  // write-read
  if (s.w != epoch::kNone) {
    const int wp = epoch::proc_of(s.w);
    if (wp != proc && !c.covers(epoch::clock_of(s.w), wp)) {
      record_race(g, s, s.w, /*first_write=*/true, proc, /*second_write=*/false, now);
      ++races;
    }
  }
  // Update read state (FastTrack's adaptive representation).
  if (s.r == kReadShared) {
    rvcs_[s.rvc].e[pi] = e;
  } else if (s.r == epoch::kNone || epoch::proc_of(s.r) == proc ||
             c.covers(epoch::clock_of(s.r), epoch::proc_of(s.r))) {
    // Exclusive read: none before, ours, or ordered before us — replace.
    s.r = e;
  } else {
    // Concurrent reader: inflate to a per-processor read vector.
    ReadVC rv;
    rv.e.assign(static_cast<std::size_t>(nprocs_), epoch::kNone);
    rv.e[static_cast<std::size_t>(epoch::proc_of(s.r))] = s.r;
    rv.e[pi] = e;
    s.rvc = static_cast<std::uint32_t>(rvcs_.size());
    rvcs_.push_back(std::move(rv));
    s.r = kReadShared;
  }
  return races;
}

int RaceDetector::plain(int proc, const void* p, std::size_t n, bool is_write,
                           std::uint64_t now) {
  if (is_write)
    ++report_.checked_writes;
  else
    ++report_.checked_reads;
  std::size_t first = 0, last = 0;
  int home = 0;
  if (!regions_.resolve_range(p, n, nprocs_, first, last, home))
    return 0;  // private memory: single-owner by construction
  const auto pi = static_cast<std::size_t>(proc);
  const std::uint32_t held = held_[pi];
  int races = 0;
  for (std::size_t g = first; g <= last; ++g) {
    Shadow& s = shadow_[g];
    races += is_write ? check_write(g, s, proc, now) : check_read(g, s, proc, now);
    // Eraser candidate lockset: intersect with the locks held at this access.
    s.set_lockset(s.lockset_set() ? locksets_.intersect(s.lockset(), held) : held);
  }
  return races;
}

// --- report formatting ------------------------------------------------------

std::string format_race_report(const RaceReport& r) {
  std::ostringstream os;
  if (!r.enabled) {
    os << "race detection: off";
    return os.str();
  }
  os << "race detection: " << r.races << " race(s) on " << r.checked_reads << " reads / "
     << r.checked_writes << " writes (" << r.atomics << " atomic sync ops, "
     << r.lock_acquires << " lock acquires, " << r.barriers << " barrier arrivals)";
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    const Race& x = r.top[i];
    os << "\n  [" << i << "] " << x.region << "+" << x.offset << ": "
       << (x.first_write ? "write" : "read") << " by proc " << x.first_proc << " ("
       << phase_name(x.first_phase) << ") vs " << (x.second_write ? "write" : "read")
       << " by proc " << x.second_proc << " (" << phase_name(x.second_phase) << ") at t="
       << x.when_ns << "ns";
    if (x.held_locks.empty()) {
      os << "; no locks held";
    } else {
      os << "; holding {";
      for (std::size_t k = 0; k < x.held_locks.size(); ++k)
        os << (k != 0 ? ", " : "") << x.held_locks[k];
      os << "}";
    }
    os << (x.lockset_consistent ? " (lockset consistent)" : " (no consistent lockset)");
  }
  if (r.races > r.top.size())
    os << "\n  ... " << r.races - r.top.size() << " more racy granule(s) not stored";
  return os.str();
}

bool default_race_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("PTB_RACE");
    return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}

}  // namespace ptb::race
