// The force phase's walk-ahead (src/sim/walk_ahead.*): a helper thread walks
// every processor's bodies into a ring of recorded charges, and each section
// replays its own chunks (DESIGN.md decision 17). Two layers of tests:
//
//  * WalkAheadThreads: the ring alone, with a real helper thread and real
//    consumer threads and no fibers, so ThreadSanitizer can check it (CI's
//    tsan job runs this suite). Every unit must arrive exactly once, in its
//    own chunk, whatever order the consumers take their chunks in.
//  * ForceReplay: the replay against the walk it replaces. A recording
//    observer captures every charge of the force phases, once charged
//    through the replay and once by a force phase that calls gather_walk
//    straight on SimProc (the loop perfbench's traced pass keeps). The
//    replay hands each unit to the observers in one on_replay call: the
//    recording observer takes the base expansion, and the tracer, sight and
//    the profiler their own overrides. The two charge streams must be equal
//    event for event, and the two runs' trace, sight and prof reports equal
//    byte for byte, with spans kept and with spans decayed per element.
//    Without observers the replay takes its flattened route, which must
//    leave the whole RunResult where the direct walk leaves it, on both
//    backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/app.hpp"
#include "mem/model.hpp"
#include "prof/prof.hpp"
#include "prof/profile.hpp"
#include "rerun.hpp"
#include "sight/sight.hpp"
#include "sim/sim_rt.hpp"
#include "sim/walk_ahead.hpp"
#include "support/cell_resolver.hpp"
#include "trace/trace.hpp"

namespace ptb {
namespace {

// ---------------------------------------------------------------------------
// The ring on its own.

/// A synthetic walk: unit u of processor q records a few charges whose
/// addresses and counts encode (q, u), and returns q * 1000 + u.
void synthetic_walk(int q, std::size_t u, ChargeRecorder& rec, void* out) {
  static char arena[1 << 16];
  const std::size_t key = static_cast<std::size_t>(q) * 1000 + u;
  rec.read_shared(arena + key % 4096, 8);
  rec.compute(3.0);
  for (std::size_t i = 0; i < u % 3; ++i) {
    rec.read_shared_span(arena + 4096 + i * 64, 16, 32, 2 + i);
    rec.compute(1.0);
    rec.compute(2.0);
  }
  const std::uint64_t v = key;
  std::memcpy(out, &v, sizeof v);
}

WalkAhead::Plan synthetic_plan(const std::vector<std::size_t>& units) {
  WalkAhead::Plan plan;
  plan.units = units;
  plan.out_bytes = sizeof(std::uint64_t);
  plan.walk = synthetic_walk;
  return plan;
}

bool same_record(const ChargeRecord& a, const ChargeRecord& b) {
  return a.addr == b.addr && a.bytes == b.bytes && a.stride == b.stride &&
         a.count == b.count && a.compute_ns == b.compute_ns;
}

/// Takes processor q's chunks in order, checking each unit the helper walked
/// against a fresh walk of it.
void consume(WalkAhead& wa, int q, std::size_t units) {
  constexpr std::size_t per = WalkAhead::kChunkUnits;
  for (std::size_t first = 0, k = 0; first < units; first += per, ++k) {
    const WalkAhead::Chunk* ch = wa.take(q, k);
    if (ch == nullptr) continue;  // claimed: this section walks it itself
    EXPECT_EQ(ch->first, first);
    EXPECT_EQ(ch->count, std::min(per, units - first));
    for (std::size_t u = 0; u < ch->count; ++u) {
      std::vector<ChargeRecord> want;
      ChargeRecorder rec(want, 2.0);
      std::uint64_t out = 0;
      synthetic_walk(q, first + u, rec, &out);
      EXPECT_EQ(ch->out<std::uint64_t>(u), out);
      ASSERT_EQ(ch->unit_size(u), want.size()) << "proc " << q << " unit " << first + u;
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(same_record(ch->unit_begin(u)[i], want[i]));
    }
    wa.release(ch);
  }
}

TEST(WalkAheadThreads, EveryUnitArrivesOnceInItsOwnChunk) {
  // 28 chunks: the six-slot ring wraps several times, and three of the
  // processors end in a partial chunk or none.
  const std::vector<std::size_t> units{148, 0, 48, 20};
  WalkAhead wa(4, 2.0);
  for (int phase = 0; phase < 5; ++phase) {
    for (int q = 0; q < 4; ++q) wa.enter(q, [&] { return synthetic_plan(units); });
    // A consumer thread per phase takes the processors in a phase-dependent
    // order, as fiber sections (id order) or pool workers might.
    std::thread consumer([&] {
      for (int i = 0; i < 4; ++i) {
        const int q = phase % 2 == 0 ? i : 3 - i;
        consume(wa, q, units[static_cast<std::size_t>(q)]);
      }
    });
    consumer.join();
  }
  wa.stop();
}

TEST(WalkAheadThreads, ConcurrentSectionsNeverDeadlock) {
  // One consumer thread per processor, all at once (kParallel's pool), with
  // fewer slots than processors.
  const std::vector<std::size_t> units{80, 132, 4, 68, 36, 0, 104, 16};
  static_assert(WalkAhead::kSlots < 8);
  WalkAhead wa(8, 2.0);
  for (int phase = 0; phase < 4; ++phase) {
    for (int q = 0; q < 8; ++q) wa.enter(q, [&] { return synthetic_plan(units); });
    std::vector<std::thread> sections;
    for (int q = 0; q < 8; ++q)
      sections.emplace_back([&, q] { consume(wa, q, units[static_cast<std::size_t>(q)]); });
    for (auto& t : sections) t.join();
  }
  wa.stop();
}

TEST(WalkAheadThreads, StopsWithUntakenChunksAndRearms) {
  // 20 chunks, far more than the ring holds.
  const std::vector<std::size_t> units{80, 80};
  WalkAhead wa(2, 2.0);
  wa.enter(0, [&] { return synthetic_plan(units); });
  wa.enter(1, [&] { return synthetic_plan(units); });
  // Take only the first chunk of processor 0; the helper may still be
  // walking or holding others when the run ends.
  if (const WalkAhead::Chunk* ch = wa.take(0, 0)) wa.release(ch);
  wa.stop();
  // The next run starts over: everything arrives again.
  std::thread consumer([&] {
    wa.enter(0, [&] { return synthetic_plan(units); });
    wa.enter(1, [&] { return synthetic_plan(units); });
    consume(wa, 0, units[0]);
    consume(wa, 1, units[1]);
  });
  consumer.join();
  wa.stop();
}

TEST(WalkAheadThreads, RecorderFoldsComputeWithinAUnitOnly) {
  std::vector<ChargeRecord> recs;
  {
    ChargeRecorder rec(recs, 7.0);
    rec.compute(1.0);  // nothing to fold into: a compute-only record
    rec.read_shared(&recs, 72);
    rec.compute(6.0);
    rec.compute(6.0);
    rec.read_shared_span(&recs, 48, 96, 1);  // a span of one is a plain read
  }
  {
    ChargeRecorder rec(recs, 7.0);
    rec.compute(0.5);  // next unit: does not fold into the last record
    rec.compute(20000.0);  // 140000 ns: wider than one record holds
  }
  ASSERT_EQ(recs.size(), 7u);
  EXPECT_EQ(recs[0].count, 0);
  EXPECT_EQ(recs[0].compute_ns, 7);
  EXPECT_EQ(recs[1].count, 1);
  EXPECT_EQ(recs[1].bytes, 72);
  EXPECT_EQ(recs[1].compute_ns, 84);
  EXPECT_EQ(recs[2].count, 1);
  EXPECT_EQ(recs[2].stride, 48);
  EXPECT_EQ(recs[2].compute_ns, 0);
  EXPECT_EQ(recs[3].count, 0);
  EXPECT_EQ(recs[3].compute_ns, 3);
  std::uint64_t wide = 0;
  for (std::size_t i = 3; i < recs.size(); ++i) wide += recs[i].compute_ns;
  EXPECT_EQ(wide, 3u + 140000u);
}

// ---------------------------------------------------------------------------
// The replay against the direct walk.

/// A digest of a processor's protocol counters.
std::uint64_t digest(const MemProcStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const MemCounterDesc& c : kMemCounters) h = (h ^ s.*c.field) * 0x100000001b3ull;
  return h;
}

/// One captured charge, with digests of the counters before and after it.
struct Charge {
  int proc;
  ChargeKind kind;
  std::uint32_t count;
  const void* addr;
  std::uint64_t bytes_stride;
  std::uint64_t now;
  std::uint64_t cost;
  std::uint64_t before;
  std::uint64_t after;

  bool operator==(const Charge&) const = default;
};

/// Records every charge a processor takes while in the force phase. It
/// implements on_charge alone, so replayed units reach it through
/// SimObserver's base expansion.
class ForceChargeLog final : public SimObserver {
 public:
  explicit ForceChargeLog(UnorderedUse use = UnorderedUse::kSpans) : use_(use) {}
  UnorderedUse unordered_use() const override { return use_; }
  void on_run_start(const RunStartEvent& e) override {
    phase_.assign(static_cast<std::size_t>(e.nprocs), Phase::kOther);
  }
  void on_phase(const PhaseEvent& e) override {
    phase_[static_cast<std::size_t>(e.proc)] = e.to;
  }
  void on_charge(const ChargeEvent& e) override {
    if (phase_[static_cast<std::size_t>(e.proc)] != Phase::kForces) return;
    log.push_back({e.proc, e.kind, static_cast<std::uint32_t>(e.count), e.addr,
                   e.bytes << 32 | e.stride, e.now, e.cost, digest(e.before),
                   digest(e.after)});
  }

  std::vector<Charge> log;

 private:
  UnorderedUse use_;
  std::vector<Phase> phase_;
};

/// Unit u's charges, issued on a recording runtime or on SimProc: a
/// compute-only record, scalars, spans followed by compute (which decay
/// per element with the compute on the last one), a span of one, and a
/// compute too wide for one record.
template <class RT>
void unit_calls(RT& rt, const char* arena, int u) {
  rt.compute(5.0);
  rt.read_shared(arena + 64 * u, 8);
  rt.compute(3.0);
  rt.read_shared_span(arena + 256, 16, 64, 3 + static_cast<std::size_t>(u));
  rt.compute(2.0);
  rt.read_shared_span(arena + 1024 + 128 * u, 8, 8, 1);
  rt.compute(20000.0);
  rt.read_shared_span(arena + 4096, 72, 128, 2);
  rt.read_shared(arena + 8192 - 72, 72);
}

TEST(ForceReplay, ReplayedUnitsMatchTheirCallsWithSpansKeptAndDecayed) {
  alignas(4096) static char arena[8192];
  for (UnorderedUse use : {UnorderedUse::kSpans, UnorderedUse::kPerElement}) {
    SCOPED_TRACE(use == UnorderedUse::kSpans ? "spans kept" : "spans decayed");
    std::vector<Charge> logs[2];
    RunResult runs[2];
    for (int replay = 0; replay < 2; ++replay) {
      SimContext ctx(PlatformSpec::challenge(), 2, SimBackend::kFibers,
                     /*race_detect=*/false, /*sight_observe=*/false);
      ctx.register_region(arena, sizeof arena, HomePolicy::kInterleavedBlock, 0, "arena");
      ForceChargeLog log(use);
      ctx.add_observer(&log);
      ctx.run([&](SimProc& rt) {
        rt.begin_phase(Phase::kForces);
        rt.unordered([&] {
          for (int u = 0; u < 3; ++u) {
            if (replay == 0) {
              unit_calls(rt, arena, u);
              continue;
            }
            std::vector<ChargeRecord> recs;
            ChargeRecorder rec(recs, ctx.spec().ns_per_work);
            unit_calls(rec, arena, u);
            rt.replay(recs.data(), recs.size());
          }
        });
        rt.barrier();
      });
      logs[replay] = std::move(log.log);
      runs[replay] = collect_run_result(ctx, AppState{});  // no bodies: a bare program
    }
    ASSERT_FALSE(logs[0].empty());
    EXPECT_TRUE(logs[0] == logs[1]) << logs[0].size() << " direct / " << logs[1].size()
                                    << " replayed charges";
    EXPECT_EQ(first_difference(runs[0], runs[1]), "");
  }
}

/// The force phase with gather_walk called straight on SimProc: the inline
/// loop, as perfbench's traced pass runs it.
void direct_forces(SimProc& rt, AppState& st) {
  const auto pi = static_cast<std::size_t>(rt.self());
  const auto& part = st.partition[pi];
  detail::ForceCounts sum;
  rt.unordered([&] { detail::force_bodies(rt, st, part.data(), part.size(), sum); });
  for (std::int32_t bi : part) rt.write(st.body_charge(bi), 32);
  st.interactions[pi] = sum.cells + sum.bodies;
  st.interactions_cell[pi] = sum.cells;
  st.interactions_body[pi] = sum.bodies;
}

/// app.hpp's timestep with the force phase made selectable.
template <class Builder>
void step(SimProc& rt, AppState& st, Builder& builder, bool direct) {
  rt.begin_phase(Phase::kTreeBuild);
  builder.build(rt);
  rt.barrier();
  rt.begin_phase(Phase::kMoments);
  moments_phase(rt, st);
  rt.begin_phase(Phase::kPartition);
  partition_phase(rt, st);
  rt.begin_phase(Phase::kForces);
  if (direct)
    direct_forces(rt, st);
  else
    forces_phase(rt, st);
  rt.barrier();
  rt.begin_phase(Phase::kUpdate);
  integrate_phase(rt, st);
  rt.barrier();
  rt.begin_phase(Phase::kOther);
}

/// What a run's observers recorded: the charge log, the chunks the sections
/// replayed, and an observed run's Chrome trace, sight and prof JSON.
struct Observed {
  std::vector<Charge> log;
  std::uint64_t handed = 0;
  std::string trace;
  std::string sight;
  std::string prof;
};

/// What a run attaches: nothing; the charge log, the tracer and sight,
/// which read a span as one charge; or those and the profiler, which decays
/// spans to per-element charges.
enum class Watch { kNone, kSpans, kPerElement };

struct RunMode {
  bool direct = false;
  Watch watch = Watch::kNone;
  SimBackend backend = SimBackend::kFibers;
};

/// The final tree's cells, as the harness resolves them for its reports.
CellResolver cells_of(const AppState& st) {
  CellResolver cells;
  for (const auto& lst : st.tree.created)
    for (const Node* nd : lst) cells.add(nd, sizeof(Node), nd->level, nd->octant);
  cells.finalize();
  return cells;
}

/// Runs two time-steps in each mode over one AppState (tests/rerun.hpp),
/// appending what each run's observers recorded to `seen`.
std::vector<RunResult> run_modes(Algorithm alg, const std::string& platform, int n,
                                 int nprocs, const std::vector<RunMode>& modes,
                                 std::vector<Observed>& seen) {
  const auto run = [&](std::size_t i, AppState& st, auto& builder) {
    const RunMode& m = modes[i];
    const bool observed = m.watch != Watch::kNone;
    SimContext ctx(PlatformSpec::by_name(platform), nprocs, m.backend,
                   /*race_detect=*/false, /*sight_observe=*/observed);
    ForceChargeLog log;
    trace::Tracer tracer(nprocs, /*capacity_per_proc=*/0);
    prof::Recorder recorder;
    if (observed) {
      ctx.add_observer(&log);
      ctx.set_tracer(&tracer);
    }
    if (m.watch == Watch::kPerElement) ctx.set_profiler(&recorder);
    register_common_regions(ctx, st);
    builder.register_regions(ctx);
    builder.reset();
    ctx.reset_stats();
    ctx.run([&](SimProc& rt) {
      for (int s = 0; s < 2; ++s) step(rt, st, builder, m.direct);
    });
    Observed o;
    o.log = std::move(log.log);
    o.handed = ctx.walk_ahead().handed();
    if (observed) {
      const CellResolver cells = cells_of(st);
      o.trace = tracer.chrome_json();
      o.sight = sight::sight_json(ctx.sight_model()->build_report(cells));
      if (m.watch == Watch::kPerElement)
        o.prof = prof::profile_json(prof::build_profile(recorder.capture(), cells, {}));
    }
    seen.push_back(std::move(o));
    return collect_run_result(ctx, st);
  };
  return rerun(alg, n, nprocs, modes.size(), run);
}

struct ReplayCase {
  Algorithm alg;
  const char* platform;
  int nprocs;
};

class ForceReplayP : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(ForceReplayP, ReplayedChargesMatchTheDirectWalk) {
  const ReplayCase c = GetParam();
  std::vector<Observed> seen;
  const auto runs = run_modes(c.alg, c.platform, 512, c.nprocs,
                              {{/*direct=*/false, Watch::kSpans},
                               {/*direct=*/true, Watch::kSpans},
                               {/*direct=*/false, Watch::kPerElement},
                               {/*direct=*/true, Watch::kPerElement},
                               {/*direct=*/false, Watch::kNone},
                               {/*direct=*/true, Watch::kNone}},
                              seen);
  // Observed: each replayed unit reaches the observers in one call, the
  // direct walk's charges one by one. The charge log's stream (the base
  // expansion) must agree event for event, and the reports of the tracer,
  // sight and the profiler (their own overrides) byte for byte; the trace
  // also pins where sight's class changes fall among the memory instants.
  for (std::size_t i : {0u, 2u}) {
    SCOPED_TRACE(seen[i].prof.empty() ? "spans kept" : "spans decayed");
    const Observed& replayed = seen[i];
    const Observed& direct = seen[i + 1];
    ASSERT_FALSE(direct.log.empty());
    const auto diverge = std::mismatch(replayed.log.begin(), replayed.log.end(),
                                       direct.log.begin(), direct.log.end());
    EXPECT_TRUE(diverge.first == replayed.log.end() && diverge.second == direct.log.end())
        << "charge streams diverge at event " << (diverge.first - replayed.log.begin())
        << " of " << replayed.log.size() << " replayed / " << direct.log.size() << " direct";
    EXPECT_EQ(first_difference(runs[i], runs[i + 1]), "");
    // The replay's force-gather and force-evaluate spans must serialize
    // exactly as the inline loop's.
    EXPECT_NE(direct.trace.find("\"force-evaluate\""), std::string::npos);
    EXPECT_TRUE(replayed.trace == direct.trace) << "replayed and direct traces differ";
    EXPECT_TRUE(replayed.sight == direct.sight) << "replayed and direct sight reports differ";
    EXPECT_TRUE(replayed.prof == direct.prof) << "replayed and direct profiles differ";
    EXPECT_GE(replayed.handed, 2u) << "too few chunks replayed with observers attached";
  }
  EXPECT_FALSE(seen[2].prof.empty());
  // Unobserved: the flattened replay must land on the same outcome, which
  // the observed runs must not have moved either.
  EXPECT_EQ(first_difference(runs[4], runs[5]), "");
  EXPECT_EQ(first_difference(runs[4], runs[0]), "");
  EXPECT_EQ(first_difference(runs[4], runs[2]), "");
  // Every replay route must have run for the comparisons above to test it:
  // each of the two force phases replays at least its first chunk,
  // whichever others the helper wins.
  EXPECT_GE(seen[4].handed, 2u) << "too few chunks replayed by the flattened route";
}

std::vector<ReplayCase> replay_cases() {
  std::vector<ReplayCase> cases;
  for (Algorithm alg : all_algorithms())
    for (const char* platform : {"challenge", "origin2000", "typhoon0_hlrc"})
      for (int p : {1, 4, 16}) cases.push_back({alg, platform, p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ForceReplayP, ::testing::ValuesIn(replay_cases()),
                         [](const ::testing::TestParamInfo<ReplayCase>& info) {
                           return std::string(algorithm_name(info.param.alg)) + "_" +
                                  info.param.platform + "_p" +
                                  std::to_string(info.param.nprocs);
                         });

// kParallel runs sections on pool workers, which take their chunks in
// whatever order they start and walk more of them themselves; with no
// observer the batched replay must still match fibers exactly.
TEST(ForceReplay, ParallelBackendMatchesFibersWithoutObservers) {
  for (Algorithm alg : {Algorithm::kSpace, Algorithm::kOrig, Algorithm::kRadix}) {
    SCOPED_TRACE(algorithm_name(alg));
    RunMode fibers;
    RunMode parallel;
    parallel.backend = SimBackend::kParallel;
    std::vector<Observed> seen;
    const auto runs = run_modes(alg, "typhoon0_hlrc", 1024, 16, {fibers, parallel}, seen);
    EXPECT_EQ(first_difference(runs[0], runs[1]), "");
  }
}

}  // namespace
}  // namespace ptb
