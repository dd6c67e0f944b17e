#include "sight/sight.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <system_error>
#include <tuple>

#include "sim/walk_ahead.hpp"
#include "support/check.hpp"
#include "support/provenance.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace ptb::sight {

namespace {

/// Set bits in `x`, inline: the portable build has no popcnt instruction,
/// so std::popcount and std::bitset::count become a libgcc call.
std::uint32_t ones(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

/// "local.cells.p3" → "local.cells.p*": collapses per-processor region
/// suffixes so the sharing table aggregates a pool family into one scope.
std::string normalize_scope(const std::string& name) {
  auto pos = name.rfind(".p");
  if (pos == std::string::npos || pos + 2 >= name.size()) return name;
  for (std::size_t i = pos + 2; i < name.size(); ++i)
    if (name[i] < '0' || name[i] > '9') return name;
  return name.substr(0, pos) + ".p*";
}

const char* phase_key(int phase) {
  return phase < 0 ? "run" : phase_name(static_cast<Phase>(phase));
}

}  // namespace

const char* line_class_name(LineClass c) {
  switch (c) {
    case LineClass::kUntouched: return "untouched";
    case LineClass::kPrivate: return "private";
    case LineClass::kReadShared: return "read-shared";
    case LineClass::kProducerConsumer: return "producer-consumer";
    case LineClass::kMigratory: return "migratory";
    case LineClass::kPingPong: return "ping-pong";
  }
  return "?";
}

LineClass classify(const LineUse& u) {
  const std::uint64_t all = u.readers | u.writers;
  if (all == 0) return LineClass::kUntouched;
  if ((all & (all - 1)) == 0) return LineClass::kPrivate;
  if (u.writers == 0) return LineClass::kReadShared;
  if ((u.writers & (u.writers - 1)) == 0) return LineClass::kProducerConsumer;
  // Several writers: migratory when ownership transfers are predominantly
  // read-then-write (the lock-protected update pattern); otherwise the line
  // bounces on blind writes — ping-pong.
  if (u.migratory_changes * 4 >= u.writer_changes * 3) return LineClass::kMigratory;
  return LineClass::kPingPong;
}

// --- ReuseTracker -----------------------------------------------------------

void SightModel::ReuseTracker::fen_add(std::uint32_t word, std::int32_t d) {
  const auto n = static_cast<std::uint32_t>(live.size());
  for (std::uint32_t i = word + 1; i <= n; i += i & (~i + 1))
    fen[i] += static_cast<std::uint32_t>(d);
}

std::uint32_t SightModel::ReuseTracker::fen_prefix(std::uint32_t words) const {
  std::uint32_t s = 0;
  for (std::uint32_t i = words; i > 0; i -= i & (~i + 1)) s += fen[i];
  return s;
}

void SightModel::ReuseTracker::compact() {
  // Renumber the live markers 0..k-1 in slot order. The write index never
  // passes the slot being read, so slot_line compacts in place.
  std::uint32_t k = 0;
  for (std::uint32_t w = 0; w < live.size(); ++w) {
    for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t id =
          slot_line[w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits))];
      slot_line[k] = id;
      state[id].slot = k;
      ++k;
    }
  }
  cap = std::max<std::uint32_t>(1024, (2 * k + 63) / 64 * 64);
  next = k;
  slot_line.resize(cap);
  live.assign(cap / 64, 0);
  for (std::uint32_t w = 0; w < k / 64; ++w) live[w] = ~std::uint64_t{0};
  if (k % 64 != 0) live[k / 64] = (std::uint64_t{1} << (k % 64)) - 1;
  // Linear-time Fenwick build: each node takes its word's count, then adds
  // its finished sum into its parent.
  const auto n = static_cast<std::uint32_t>(live.size());
  fen.assign(n + 1, 0);
  for (std::uint32_t i = 1; i <= n; ++i) {
    fen[i] += ones(live[i - 1]);
    const std::uint32_t parent = i + (i & (~i + 1));
    if (parent <= n) fen[parent] += fen[i];
  }
}

std::uint64_t SightModel::ReuseTracker::access(std::uint32_t id, int phase,
                                               bool& first_in_phase) {
  if (id >= state.size()) state.resize(id + 1);
  LineState& ls = state[id];
  const auto pbit = static_cast<std::uint8_t>(1u << phase);
  first_in_phase = (ls.phase_mask & pbit) == 0;
  const bool cold = ls.phase_mask == 0;
  ls.phase_mask = static_cast<std::uint8_t>(ls.phase_mask | pbit);
  // The most recent line's marker already holds the latest slot.
  if (id == last) return 0;
  last = id;
  if (next == cap) compact();
  const std::uint32_t top = next / 64;
  std::uint64_t dist = ~std::uint64_t{0};
  if (cold) {
    ++occupied;
    fen_add(top, 1);
  } else {
    // Distinct lines this processor touched since its last access to this
    // one: the markers in slots after ours.
    const std::uint32_t w = ls.slot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (ls.slot % 64);
    if (w == top) {
      dist = ones(live[w] & ~((bit << 1) - 1));
    } else {
      dist = occupied - fen_prefix(w) - ones(live[w] & ((bit << 1) - 1));
      fen_add(w, -1);
      fen_add(top, 1);
    }
    live[w] &= ~bit;
  }
  ls.slot = next;
  slot_line[next] = id;
  live[top] |= std::uint64_t{1} << (next % 64);
  ++next;
  return dist;
}

// --- SightModel -------------------------------------------------------------

SightModel::SightModel(const PlatformSpec& spec, int nprocs)
    : nprocs_(nprocs),
      la_(static_cast<std::size_t>(nprocs_)),
      phase_(static_cast<std::size_t>(nprocs_), Phase::kOther),
      reuse_(static_cast<std::size_t>(nprocs_)),
      ws_lines_(static_cast<std::size_t>(nprocs_)),
      ws_cold_(static_cast<std::size_t>(nprocs_)),
      reuse_dist_(static_cast<std::size_t>(nprocs_)) {
  regions_.set_block_bytes(kLineBytes);
  if (const char* env = std::getenv("PTB_SIGHT_WINDOW_NS");
      env != nullptr && env[0] != '\0') {
    // A whole decimal number only: a lenient parse would read "abc" as a
    // 0 ns window and silently drop every false-sharing finding.
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, window_ns_);
    PTB_CHECK_MSG(ec == std::errc{} && ptr == end,
                  ("bad PTB_SIGHT_WINDOW_NS \"" + std::string(env) +
                   "\" (want a whole number of virtual ns)")
                      .c_str());
  } else {
    const double worst = std::max(
        {spec.remote_miss_ns, spec.local_miss_ns, spec.page_fault_ns, 100.0});
    window_ns_ = static_cast<std::uint64_t>(std::llround(8.0 * worst));
  }
}

void SightModel::add_region(const void* base, std::size_t bytes, HomePolicy policy,
                            int fixed_home, std::string name) {
  regions_.add(base, bytes, policy, fixed_home, std::move(name), nprocs_);
  // The table re-sorts on add, so cached line mappings may be stale.
  for (LineLookaside& la : la_) la.flush();
  slot_of_block_.grow(regions_.total_blocks());
  refresh_granules();
}

void SightModel::on_region(const RegionEvent& e) {
  add_region(e.base, e.bytes, e.policy, e.fixed_home, e.name);
}

void SightModel::add_observed_region(const void* base, std::size_t bytes,
                                     std::string name) {
  add_region(base, bytes, HomePolicy::kFixed, 0, std::move(name));
}

void SightModel::set_object_granule(const std::string& prefix, std::size_t bytes) {
  for (auto& [p, b] : granule_config_) {
    if (p == prefix) {
      b = bytes;
      refresh_granules();
      return;
    }
  }
  granule_config_.emplace_back(prefix, bytes);
  refresh_granules();
}

void SightModel::refresh_granules() {
  // Region indices shift when the table re-sorts on add, so the per-region
  // granule view is rebuilt from the name-prefix config each time.
  const auto& regs = regions_.regions();
  region_granule_.assign(regs.size(), 0);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (const auto& [prefix, bytes] : granule_config_) {
      if (regs[i].name.rfind(prefix, 0) == 0)
        region_granule_[i] = static_cast<std::uint32_t>(bytes);
    }
  }
}

std::uint32_t SightModel::line_id(std::size_t block) {
  std::uint32_t& s = slot_of_block_[block];
  if (s == 0) {
    lines_.emplace_back();
    line_block_.push_back(block);
    s = static_cast<std::uint32_t>(lines_.size());
  }
  return s - 1;
}

void SightModel::note_class(int proc, LineClass cls, std::uint64_t now) {
  if (tracer_ != nullptr)
    tracer_->instant(proc, trace::kCatSight, line_class_name(cls), now, 1);
}

bool SightModel::read_line(Line& L, std::size_t ph, std::uint64_t bit) {
  const bool new_reader = (L.total.readers & bit) == 0;
  L.total.readers |= bit;
  L.phase[ph].readers |= bit;
  L.readers_since_write |= bit;
  return new_reader;
}

bool SightModel::reclassify(Line& L) {
  const LineClass c = classify(L.total);
  if (c == L.cls) return false;
  L.cls = c;
  return true;
}

SightModel::ReuseView SightModel::reuse_view(int proc, std::size_t ph) {
  const auto pi = static_cast<std::size_t>(proc);
  return {reuse_[pi], static_cast<int>(ph), ws_lines_[pi][ph], ws_cold_[pi][ph],
          reuse_dist_[pi][ph]};
}

void SightModel::ReuseView::note(std::uint32_t id) {
  bool first_in_phase = false;
  const std::uint64_t dist = tracker.access(id, phase, first_in_phase);
  if (first_in_phase) lines += 1;
  if (dist == ~std::uint64_t{0}) {
    cold += 1;
  } else {
    reuse.add(static_cast<double>(dist));
  }
}

void SightModel::touch_line(int proc, std::size_t block, bool is_write,
                            std::uint32_t object, bool has_object, std::uint64_t now,
                            bool has_now) {
  const std::uint32_t id = line_id(block);
  Line& L = lines_[id];
  const auto ph = static_cast<std::size_t>(phase_[static_cast<std::size_t>(proc)]);
  const std::uint64_t bit = std::uint64_t{1} << proc;
  LineUse& total = L.total;
  LineUse& pu = L.phase[ph];
  // classify() reads the reader/writer masks and the transfer counts. A
  // re-read by a known reader, or a repeat write by the last writer,
  // changes none of them.
  bool recheck = true;
  if (is_write) {
    recheck = L.last_writer != proc;
    total.writers |= bit;
    pu.writers |= bit;
    if (L.last_writer >= 0 && L.last_writer != proc) {
      total.writer_changes += 1;
      pu.writer_changes += 1;
      if ((L.readers_since_write & bit) != 0) {
        total.migratory_changes += 1;
        pu.migratory_changes += 1;
      }
    }
    if (has_object && has_now) {
      if (L.fs_writer >= 0 && L.fs_writer != proc && L.fs_object != object &&
          now - L.fs_when_ns <= window_ns_) {
        FindingAcc& f = findings_[block];
        f.hits += 1;
        f.procs |= bit | (std::uint64_t{1} << L.fs_writer);
        f.phase_hits[ph] += 1;
        for (std::uint32_t o : {L.fs_object, object}) {
          const std::uint64_t obit = std::uint64_t{1} << (o % 64);
          if ((f.objects & obit) == 0 ||
              std::find(f.object_ids.begin(), f.object_ids.end(), o) ==
                  f.object_ids.end()) {
            f.objects |= obit;
            f.object_ids.push_back(o);
          }
        }
      }
      L.fs_writer = static_cast<std::int16_t>(proc);
      L.fs_object = object;
      L.fs_when_ns = now;
    }
    L.last_writer = static_cast<std::int16_t>(proc);
    L.readers_since_write = 0;
  } else {
    recheck = read_line(L, ph, bit);
  }
  if (recheck && reclassify(L)) note_class(proc, L.cls, has_now ? now : now_hint_);
  reuse_view(proc, ph).note(id);
}

void SightModel::observe(int proc, const void* p, std::size_t n, bool is_write,
                         std::uint64_t now, bool has_now) {
  std::size_t first = 0;
  std::size_t last = 0;
  int home = 0;
  std::int32_t region = LineLookaside::kNotShared;
  if (!regions_.resolve_range_cached(p, n, nprocs_, la_[static_cast<std::size_t>(proc)],
                                     first, last, home, region))
    return;
  if (is_write) {
    writes_ += 1;
  } else {
    reads_ += 1;
  }
  const Region& r = regions_.regions()[static_cast<std::size_t>(region)];
  const std::uint32_t granule = region_granule_[static_cast<std::size_t>(region)];
  const unsigned shift = regions_.block_shift();
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  for (std::size_t i = 0; i <= last - first; ++i) {
    const std::uintptr_t first_byte = i == 0 ? a : (((a >> shift) + i) << shift);
    const std::uint32_t object =
        granule != 0 ? static_cast<std::uint32_t>((first_byte - r.base) / granule) : 0;
    touch_line(proc, first + i, is_write, object, granule != 0, now, has_now);
  }
}

void SightModel::on_charge(const ChargeEvent& e) {
  if (e.kind == ChargeKind::kReadShared) {
    // No virtual timestamp on the unordered path (the clock has not folded
    // the pending cost); now_hint_ gives trace instants a consistent,
    // slightly-stale timestamp.
    const char* a = static_cast<const char*>(e.addr);
    for (std::size_t i = 0; i < e.count; ++i)
      observe(e.proc, a + i * e.stride, e.bytes, /*is_write=*/false, now_hint_,
              /*has_now=*/false);
    return;
  }
  now_hint_ = e.now;
  switch (e.kind) {
    case ChargeKind::kRead:
    case ChargeKind::kWrite:
    case ChargeKind::kRmw:
      observe(e.proc, e.addr, e.bytes, e.kind != ChargeKind::kRead, e.now, /*has_now=*/true);
      break;
    case ChargeKind::kAcquire:
      // A lock acquire is a read-modify-write of the lock word; record the
      // read first so contended locks classify migratory, not ping-pong.
      observe(e.proc, e.addr, sizeof(void*), /*is_write=*/false, e.now, /*has_now=*/true);
      observe(e.proc, e.addr, sizeof(void*), /*is_write=*/true, e.now, /*has_now=*/true);
      break;
    case ChargeKind::kRelease:
      observe(e.proc, e.addr, sizeof(void*), /*is_write=*/true, e.now, /*has_now=*/true);
      break;
    case ChargeKind::kBarrierArrive:
    case ChargeKind::kBarrierDepart:
    case ChargeKind::kReadShared:
      break;  // barriers touch no line; they only advance the time hint
  }
}

void SightModel::on_replay(const ReplayEvent& e) {
  // on_charge's kReadShared path over the whole unit, with the processor's
  // state looked up once. A class change goes to the tracer with its
  // charge's index, so it lands among the memory instants where on_charge
  // would have put it.
  const auto pi = static_cast<std::size_t>(e.proc);
  const auto ph = static_cast<std::size_t>(phase_[pi]);
  const std::uint64_t bit = std::uint64_t{1} << e.proc;
  LineLookaside& la = la_[pi];
  ReuseView reuse = reuse_view(e.proc, ph);
  for (std::size_t k = 0; k < e.size; ++k) {
    const ChargeRecord& r = e.records[k];
    const char* a = static_cast<const char*>(r.addr);
    for (std::size_t i = 0; i < r.count; ++i) {
      std::size_t first = 0;
      std::size_t last = 0;
      int home = 0;
      std::int32_t region = LineLookaside::kNotShared;
      if (!regions_.resolve_range_cached(a + i * r.stride, r.bytes, nprocs_, la, first, last,
                                         home, region))
        continue;
      reads_ += 1;
      for (std::size_t block = first; block <= last; ++block) {
        const std::uint32_t id = line_id(block);
        Line& L = lines_[id];
        if (read_line(L, ph, bit) && reclassify(L) && tracer_ != nullptr)
          tracer_->instant_at_charge(k, trace::kCatSight, line_class_name(L.cls), now_hint_);
        reuse.note(id);
      }
    }
  }
}

void SightModel::on_phase(const PhaseEvent& e) {
  phase_[static_cast<std::size_t>(e.proc)] = e.to;
}

// --- report assembly --------------------------------------------------------

namespace {

struct RegionSpan {
  std::size_t first_block;
  std::size_t end_block;
  const Region* region;
};

const RegionSpan* span_of(const std::vector<RegionSpan>& spans, std::size_t block) {
  auto it = std::upper_bound(spans.begin(), spans.end(), block,
                             [](std::size_t b, const RegionSpan& s) {
                               return b < s.first_block;
                             });
  if (it == spans.begin()) return nullptr;
  --it;
  return block < it->end_block ? &*it : nullptr;
}

}  // namespace

SightReport SightModel::build_report(const CellResolver& cells) const {
  SightReport rep;
  rep.enabled = true;
  rep.window_ns = window_ns_;
  rep.lines_observed = lines_.size();
  rep.reads = reads_;
  rep.writes = writes_;

  std::vector<RegionSpan> spans;
  spans.reserve(regions_.regions().size());
  for (const Region& r : regions_.regions())
    spans.push_back({r.first_block, r.first_block + r.num_blocks, &r});
  std::sort(spans.begin(), spans.end(), [](const RegionSpan& a, const RegionSpan& b) {
    return a.first_block < b.first_block;
  });
  const unsigned shift = regions_.block_shift();

  // (scope, depth, phase, class) -> line count. Phase -1 is the whole run.
  std::map<std::tuple<std::string, int, int, int>, std::uint64_t> table;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const Line& L = lines_[i];
    const RegionSpan* s = span_of(spans, line_block_[i]);
    if (s == nullptr) continue;
    const Region& r = *s->region;
    const std::uintptr_t lbase =
        ((r.base >> shift) + (line_block_[i] - r.first_block)) << shift;
    const CellResolver::Cell* c =
        cells.empty() ? nullptr
                      : cells.resolve(reinterpret_cast<const void*>(
                            std::max(lbase, r.base)));
    const std::string scope = c != nullptr ? "cells" : normalize_scope(r.name);
    const int depth = c != nullptr ? c->depth : -1;
    const LineClass run_cls = classify(L.total);
    rep.total_classes[static_cast<std::size_t>(run_cls)] += 1;
    table[{scope, depth, -1, static_cast<int>(run_cls)}] += 1;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const LineUse& u = L.phase[static_cast<std::size_t>(ph)];
      if ((u.readers | u.writers) == 0) continue;
      table[{scope, depth, ph, static_cast<int>(classify(u))}] += 1;
    }
  }
  for (const auto& [key, count] : table) {
    ClassCell cell;
    cell.scope = std::get<0>(key);
    cell.depth = std::get<1>(key);
    cell.phase = std::get<2>(key);
    cell.cls = static_cast<LineClass>(std::get<3>(key));
    cell.lines = count;
    rep.classes.push_back(std::move(cell));
  }

  // ptblint: allow(unordered-iter) -- findings are sorted below by the total key (hits, region, line)
  for (const auto& [block, acc] : findings_) {
    Finding f;
    const RegionSpan* s = span_of(spans, block);
    if (s == nullptr) continue;
    const Region& r = *s->region;
    f.region = r.name;
    f.line = block - r.first_block;
    const std::uintptr_t lbase = ((r.base >> shift) + f.line) << shift;
    const CellResolver::Cell* c =
        cells.empty() ? nullptr
                      : cells.resolve(reinterpret_cast<const void*>(
                            std::max(lbase, r.base)));
    f.cell = c != nullptr ? cell_name(c) : "";
    f.objects = acc.object_ids;
    std::sort(f.objects.begin(), f.objects.end());
    for (int p = 0; p < nprocs_; ++p)
      if ((acc.procs >> p) & 1) f.procs.push_back(p);
    f.hits = acc.hits;
    f.phase_hits = acc.phase_hits;
    rep.false_sharing_hits += acc.hits;
    rep.false_sharing.push_back(std::move(f));
  }
  std::sort(rep.false_sharing.begin(), rep.false_sharing.end(),
            [](const Finding& a, const Finding& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              if (a.region != b.region) return a.region < b.region;
              return a.line < b.line;
            });

  for (int p = 0; p < nprocs_; ++p) {
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const auto pi = static_cast<std::size_t>(p);
      const auto phi = static_cast<std::size_t>(ph);
      WorkingSetRow row;
      row.proc = p;
      row.phase = ph;
      row.distinct_lines = ws_lines_[pi][phi];
      row.cold = ws_cold_[pi][phi];
      row.reuse = reuse_dist_[pi][phi];
      if (row.distinct_lines == 0 && row.cold == 0 && row.reuse.count() == 0) continue;
      rep.working_set.push_back(std::move(row));
    }
  }
  return rep;
}

// --- serialization ----------------------------------------------------------

void write_sight_json(const SightReport& r, std::FILE* f) {
  std::fprintf(f, "{\n  \"sight\": {\n");
  support::RunProvenance prov;
  prov.platform = r.platform;
  prov.algorithm = r.algorithm;
  prov.nbodies = r.nbodies;
  prov.nprocs = r.nprocs;
  std::fprintf(f, "    \"provenance\": ");
  support::write_provenance_json(f, &prov);
  std::fprintf(f, ",\n");
  std::fprintf(f, "    \"window_ns\": %" PRIu64 ",\n", r.window_ns);
  std::fprintf(f, "    \"lines_observed\": %" PRIu64 ",\n", r.lines_observed);
  std::fprintf(f, "    \"reads\": %" PRIu64 ",\n", r.reads);
  std::fprintf(f, "    \"writes\": %" PRIu64 ",\n", r.writes);
  std::fprintf(f, "    \"total_classes\": [");
  bool first = true;
  for (int c = 1; c < kNumClasses; ++c) {
    std::fprintf(f, "%s\n      {\"class\": \"%s\", \"lines\": %" PRIu64 "}",
                 first ? "" : ",", line_class_name(static_cast<LineClass>(c)),
                 r.total_classes[static_cast<std::size_t>(c)]);
    first = false;
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"classes\": [");
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const ClassCell& cc = r.classes[i];
    std::fprintf(f,
                 "%s\n      {\"scope\": \"%s\", \"depth\": %d, \"phase\": \"%s\", "
                 "\"class\": \"%s\", \"lines\": %" PRIu64 "}",
                 i != 0 ? "," : "", cc.scope.c_str(), cc.depth, phase_key(cc.phase),
                 line_class_name(cc.cls), cc.lines);
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"false_sharing_hits\": %" PRIu64 ",\n", r.false_sharing_hits);
  std::fprintf(f, "    \"false_sharing\": [");
  for (std::size_t i = 0; i < r.false_sharing.size(); ++i) {
    const Finding& fd = r.false_sharing[i];
    std::fprintf(f,
                 "%s\n      {\"region\": \"%s\", \"line\": %" PRIu64
                 ", \"cell\": \"%s\", \"hits\": %" PRIu64 ", \"objects\": [",
                 i != 0 ? "," : "", fd.region.c_str(), fd.line, fd.cell.c_str(),
                 fd.hits);
    for (std::size_t o = 0; o < fd.objects.size(); ++o)
      std::fprintf(f, "%s%u", o != 0 ? ", " : "", fd.objects[o]);
    std::fprintf(f, "], \"procs\": [");
    for (std::size_t p = 0; p < fd.procs.size(); ++p)
      std::fprintf(f, "%s%d", p != 0 ? ", " : "", fd.procs[p]);
    std::fprintf(f, "], \"phase_hits\": [");
    bool ph_first = true;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      if (fd.phase_hits[static_cast<std::size_t>(ph)] == 0) continue;
      std::fprintf(f, "%s{\"phase\": \"%s\", \"hits\": %" PRIu64 "}",
                   ph_first ? "" : ", ", phase_name(static_cast<Phase>(ph)),
                   fd.phase_hits[static_cast<std::size_t>(ph)]);
      ph_first = false;
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"working_set\": [");
  for (std::size_t i = 0; i < r.working_set.size(); ++i) {
    const WorkingSetRow& w = r.working_set[i];
    std::fprintf(f,
                 "%s\n      {\"proc\": %d, \"phase\": \"%s\", \"distinct_lines\": %" PRIu64
                 ", \"cold\": %" PRIu64 ", \"reuse_samples\": %" PRIu64
                 ", \"reuse_p50\": %.1f, \"reuse_p95\": %.1f, \"reuse_max\": %.0f}",
                 i != 0 ? "," : "", w.proc, phase_name(static_cast<Phase>(w.phase)),
                 w.distinct_lines, w.cold, w.reuse.count(), w.reuse.p50(),
                 w.reuse.p95(), w.reuse.stat().max());
  }
  std::fprintf(f, "\n    ]\n  }\n}\n");
}

std::string sight_json(const SightReport& r) {
  std::FILE* f = std::tmpfile();
  PTB_CHECK_MSG(f != nullptr, "sight: cannot create temporary file");
  write_sight_json(r, f);
  long size = std::ftell(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(f);
  std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return out;
}

void ingest_sight_metrics(trace::MetricsRegistry& m, const SightReport& r) {
  m.set("sight.lines_observed", {}, static_cast<double>(r.lines_observed));
  m.set("sight.reads", {}, static_cast<double>(r.reads));
  m.set("sight.writes", {}, static_cast<double>(r.writes));
  for (int c = 1; c < kNumClasses; ++c) {
    m.set("sight.class_lines", {{"class", line_class_name(static_cast<LineClass>(c))}},
          static_cast<double>(r.total_classes[static_cast<std::size_t>(c)]));
  }
  m.set("sight.false_sharing_findings", {},
        static_cast<double>(r.false_sharing.size()));
  m.set("sight.false_sharing_hits", {}, static_cast<double>(r.false_sharing_hits));
  for (const WorkingSetRow& w : r.working_set) {
    const trace::Labels labels = {{"proc", std::to_string(w.proc)},
                                  {"phase", phase_name(static_cast<Phase>(w.phase))}};
    m.set("sight.ws_distinct_lines", labels, static_cast<double>(w.distinct_lines));
    m.set("sight.ws_cold", labels, static_cast<double>(w.cold));
    if (w.reuse.count() > 0) m.record_all("sight.reuse_dist", labels, w.reuse);
  }
}

bool default_sight_enabled() {
  const char* env = std::getenv("PTB_SIGHT");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string sight_path_from(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("PTB_SIGHT");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace ptb::sight
