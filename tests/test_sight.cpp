// Tests for ptb::sight — sharing-pattern classification, the planted
// false-sharing fixture (two per-proc counters in one 64 B line) with its
// padded negative control, exact reuse-distance / working-set tracking, the
// bit-identity guarantee across the full algorithm × platform matrix (sight
// must be a pure observer of virtual time), sight JSON, and the metrics
// bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "json_checker.hpp"
#include "mem/model.hpp"
#include "platform/spec.hpp"
#include "sight/sight.hpp"
#include "support/cell_resolver.hpp"
#include "support/rng.hpp"

namespace ptb {
namespace {

using sight::LineClass;
using sight::LineUse;
using sight::SightModel;
using sight::SightReport;
using testutil::JsonChecker;

std::unique_ptr<SightModel> make_sight(int nprocs) {
  return std::make_unique<SightModel>(PlatformSpec::ideal(), nprocs);
}

// The feed_* helpers hand sight the events SimContext sends for each
// operation, so these tests drive the observer exactly as a run does.
const MemProcStats kNoStats{};

void feed_region(SightModel& sm, const void* base, std::size_t bytes, HomePolicy policy,
                 const std::string& name) {
  sm.on_region({base, bytes, policy, 0, name});
}

void feed(SightModel& sm, int proc, ChargeKind kind, const void* p, std::size_t n,
          std::uint64_t now) {
  sm.on_charge({proc, kind, p, nullptr, n, n, 1, now, 0, kNoStats, kNoStats});
}

void feed_read(SightModel& sm, int proc, const void* p, std::size_t n, std::uint64_t now) {
  feed(sm, proc, ChargeKind::kRead, p, n, now);
}

void feed_write(SightModel& sm, int proc, const void* p, std::size_t n, std::uint64_t now) {
  feed(sm, proc, ChargeKind::kWrite, p, n, now);
}

void feed_read_shared(SightModel& sm, int proc, const void* p, std::size_t n) {
  feed(sm, proc, ChargeKind::kReadShared, p, n, 0);
}

void feed_lock(SightModel& sm, int proc, ChargeKind kind, const void* lock,
               std::uint64_t now) {
  feed(sm, proc, kind, lock, 0, now);
}

void feed_phase(SightModel& sm, int proc, Phase ph) {
  sm.on_phase({proc, Phase::kOther, ph, 0, 0, kNoStats});
}

std::uint64_t class_lines(const SightReport& r, LineClass c) {
  return r.total_classes[static_cast<std::size_t>(c)];
}

// --- classification taxonomy ---

TEST(SightClassify, OneProcessorIsPrivateRegardlessOfMix) {
  LineUse u;
  EXPECT_EQ(sight::classify(u), LineClass::kUntouched);
  u.readers = 0b1;
  EXPECT_EQ(sight::classify(u), LineClass::kPrivate);
  u.writers = 0b1;
  EXPECT_EQ(sight::classify(u), LineClass::kPrivate);
}

TEST(SightClassify, MultipleReadersNoWriterIsReadShared) {
  LineUse u;
  u.readers = 0b1011;
  EXPECT_EQ(sight::classify(u), LineClass::kReadShared);
}

TEST(SightClassify, SingleWriterWithReadersIsProducerConsumer) {
  LineUse u;
  u.readers = 0b110;
  u.writers = 0b001;
  EXPECT_EQ(sight::classify(u), LineClass::kProducerConsumer);
}

TEST(SightClassify, ReadBeforeWriteTransfersAreMigratory) {
  LineUse u;
  u.readers = 0b11;
  u.writers = 0b11;
  u.writer_changes = 4;
  u.migratory_changes = 4;  // every new owner read the line first
  EXPECT_EQ(sight::classify(u), LineClass::kMigratory);
  u.migratory_changes = 3;  // 3/4 transfers read-first still qualifies
  EXPECT_EQ(sight::classify(u), LineClass::kMigratory);
}

TEST(SightClassify, BlindWriteBouncingIsPingPong) {
  LineUse u;
  u.writers = 0b11;
  u.writer_changes = 4;
  u.migratory_changes = 0;
  EXPECT_EQ(sight::classify(u), LineClass::kPingPong);
  u.migratory_changes = 2;  // half read-first is below the 3/4 threshold
  EXPECT_EQ(sight::classify(u), LineClass::kPingPong);
}

// --- planted false sharing ---

// The classic bug: two processors increment their "own" 8-byte counters that
// the layout packed into one 64 B line.
TEST(SightFalseSharing, PlantedPerProcCountersInOneLineAreDetected) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  feed_region(*sm, counters, sizeof(counters), HomePolicy::kFixed, "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    feed_write(*sm, 0, &counters[0], 8, now);
    now += 10;
    feed_write(*sm, 1, &counters[1], 8, now);
    now += 10;
  }

  const SightReport rep = sm->build_report(CellResolver{});
  ASSERT_EQ(rep.false_sharing.size(), 1u);
  const sight::Finding& f = rep.false_sharing[0];
  EXPECT_EQ(f.region, "fixture.counters");
  EXPECT_EQ(f.line, 0u);
  EXPECT_EQ(f.objects, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(f.procs, (std::vector<int>{0, 1}));
  EXPECT_GE(f.hits, 8u);
  EXPECT_EQ(rep.false_sharing_hits, f.hits);
  // Blind cross-writes also classify the line ping-pong.
  EXPECT_EQ(class_lines(rep, LineClass::kPingPong), 1u);
}

// The fix — one counter per line — silences the detector and the line class.
TEST(SightFalseSharing, PaddedCountersAreTheNegativeControl) {
  struct alignas(64) Padded {
    std::uint64_t v = 0;
    char pad[56];
  };
  auto sm = make_sight(2);
  alignas(64) static Padded padded[2];
  feed_region(*sm, padded, sizeof(padded), HomePolicy::kFixed, "fixture.padded");
  sm->set_object_granule("fixture.padded", sizeof(Padded));

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    feed_write(*sm, 0, &padded[0].v, 8, now);
    now += 10;
    feed_write(*sm, 1, &padded[1].v, 8, now);
    now += 10;
  }

  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_TRUE(rep.false_sharing.empty());
  EXPECT_EQ(rep.false_sharing_hits, 0u);
  EXPECT_EQ(class_lines(rep, LineClass::kPrivate), 2u);
}

TEST(SightFalseSharing, WritesFartherApartThanTheWindowDoNotCount) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  feed_region(*sm, counters, sizeof(counters), HomePolicy::kFixed, "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));
  sm->set_window_ns(100);

  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    feed_write(*sm, 0, &counters[0], 8, now);
    now += 5000;
    feed_write(*sm, 1, &counters[1], 8, now);
    now += 5000;
  }
  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_TRUE(rep.false_sharing.empty());
  // Still genuinely shared — the classifier sees it even if the writes are
  // too far apart to cost coherence traffic.
  EXPECT_EQ(class_lines(rep, LineClass::kPingPong), 1u);
}

TEST(SightFalseSharing, TrueSharingOfOneObjectIsNotFlagged) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  feed_region(*sm, counters, sizeof(counters), HomePolicy::kFixed, "fixture.counters");
  sm->set_object_granule("fixture.counters", sizeof(std::uint64_t));
  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    feed_write(*sm, i % 2, &counters[0], 8, now);  // both procs, SAME object
    now += 10;
  }
  EXPECT_TRUE(sm->build_report(CellResolver{}).false_sharing.empty());
}

TEST(SightFalseSharing, RegionsWithoutAGranuleAreNeverFlagged) {
  auto sm = make_sight(2);
  alignas(64) static std::uint64_t counters[8] = {};
  feed_region(*sm, counters, sizeof(counters), HomePolicy::kFixed, "fixture.counters");
  std::uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    feed_write(*sm, 0, &counters[0], 8, now);
    now += 10;
    feed_write(*sm, 1, &counters[1], 8, now);
    now += 10;
  }
  EXPECT_TRUE(sm->build_report(CellResolver{}).false_sharing.empty());
}

TEST(SightWindow, EnvOverrideBeatsThePlatformDefault) {
  ::setenv("PTB_SIGHT_WINDOW_NS", "12345", 1);
  auto sm = make_sight(2);
  EXPECT_EQ(sm->window_ns(), 12345u);
  ::unsetenv("PTB_SIGHT_WINDOW_NS");
  auto sm2 = make_sight(2);
  EXPECT_GT(sm2->window_ns(), 0u);
}

// A lenient parse would turn these into a 0 ns or truncated window and
// silently change the report, so anything but a whole decimal must abort.
TEST(SightWindow, MalformedEnvOverrideAborts) {
  for (const char* bad : {"abc", "12x", "-5", "+5", " 100", "1e4", "99999999999999999999"}) {
    ::setenv("PTB_SIGHT_WINDOW_NS", bad, 1);
    EXPECT_DEATH((void)make_sight(2), "PTB_SIGHT_WINDOW_NS") << bad;
  }
  ::unsetenv("PTB_SIGHT_WINDOW_NS");
}

// --- reuse distance / working set ---

TEST(SightReuse, ExactStackDistancesAndPerPhaseWorkingSets) {
  auto sm = make_sight(1);
  alignas(64) static char buf[64 * 4];
  feed_region(*sm, buf, sizeof(buf), HomePolicy::kFixed, "fixture.buf");

  feed_phase(*sm, 0, Phase::kTreeBuild);
  // A B C A: the second A has exactly 2 distinct lines in between.
  feed_read(*sm, 0, buf + 0, 4, 0);
  feed_read(*sm, 0, buf + 64, 4, 10);
  feed_read(*sm, 0, buf + 128, 4, 20);
  feed_read(*sm, 0, buf + 0, 4, 30);
  feed_phase(*sm, 0, Phase::kForces);
  feed_read(*sm, 0, buf + 0, 4, 40);  // re-touch in a new phase: distance 0

  const SightReport rep = sm->build_report(CellResolver{});
  const sight::WorkingSetRow* build = nullptr;
  const sight::WorkingSetRow* forces = nullptr;
  for (const auto& w : rep.working_set) {
    if (w.phase == static_cast<int>(Phase::kTreeBuild)) build = &w;
    if (w.phase == static_cast<int>(Phase::kForces)) forces = &w;
  }
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->distinct_lines, 3u);
  EXPECT_EQ(build->cold, 3u);  // A, B, C first-ever touches
  ASSERT_EQ(build->reuse.count(), 1u);
  EXPECT_DOUBLE_EQ(build->reuse.stat().max(), 2.0);  // the A..A distance

  ASSERT_NE(forces, nullptr);
  EXPECT_EQ(forces->distinct_lines, 1u);
  EXPECT_EQ(forces->cold, 0u);
  ASSERT_EQ(forces->reuse.count(), 1u);
  EXPECT_DOUBLE_EQ(forces->reuse.stat().max(), 0.0);  // immediate re-touch
}

TEST(SightReuse, SlotCompactionPreservesDistances) {
  auto sm = make_sight(1);
  // 33 lines cycled many times: >1024 accesses forces at least one Fenwick
  // compaction; every post-warm-up cycle must still see distance 32.
  alignas(64) static char buf[64 * 33];
  feed_region(*sm, buf, sizeof(buf), HomePolicy::kFixed, "fixture.buf");
  for (int round = 0; round < 40; ++round)
    for (int l = 0; l < 33; ++l) feed_read(*sm, 0, buf + 64 * l, 1, 0);
  const SightReport rep = sm->build_report(CellResolver{});
  ASSERT_EQ(rep.working_set.size(), 1u);
  const auto& w = rep.working_set[0];
  EXPECT_EQ(w.distinct_lines, 33u);
  EXPECT_EQ(w.cold, 33u);
  EXPECT_EQ(w.reuse.count(), 40u * 33u - 33u);
  EXPECT_DOUBLE_EQ(w.reuse.stat().max(), 32.0);
  EXPECT_DOUBLE_EQ(w.reuse.stat().mean(), 32.0);  // every reuse sees all others
}

// Brute-force oracle: per processor, a move-to-front list of the lines it
// touched; a reuse's stack distance is the line's depth in that list.
struct ReuseOracle {
  struct Row {
    std::uint64_t distinct = 0, cold = 0, count = 0, sum = 0, min = ~0ull, max = 0;
    std::array<std::uint64_t, Distribution::kBuckets> buckets{};
  };
  std::vector<std::vector<std::uint32_t>> stack;        // per proc, most recent first
  std::vector<std::vector<std::uint8_t>> phase_seen;    // per proc, by line
  std::vector<std::array<Row, kNumPhases>> rows;        // per (proc, phase)
  std::vector<std::uint64_t> moves;  // per proc: accesses to a line other than the last

  ReuseOracle(int nprocs, std::size_t nlines)
      : stack(static_cast<std::size_t>(nprocs)),
        phase_seen(static_cast<std::size_t>(nprocs), std::vector<std::uint8_t>(nlines)),
        rows(static_cast<std::size_t>(nprocs)),
        moves(static_cast<std::size_t>(nprocs)) {}

  void access(int proc, int phase, std::uint32_t line) {
    const auto pi = static_cast<std::size_t>(proc);
    Row& row = rows[pi][static_cast<std::size_t>(phase)];
    std::uint8_t& seen = phase_seen[pi][line];
    if ((seen & (1u << phase)) == 0) row.distinct += 1;
    seen = static_cast<std::uint8_t>(seen | (1u << phase));
    std::vector<std::uint32_t>& s = stack[pi];
    auto it = std::find(s.begin(), s.end(), line);
    if (it != s.begin()) moves[pi] += 1;
    if (it == s.end()) {
      row.cold += 1;
      s.insert(s.begin(), line);
      return;
    }
    const auto d = static_cast<std::uint64_t>(it - s.begin());
    std::rotate(s.begin(), it, it + 1);
    row.count += 1;
    row.sum += d;
    row.min = std::min(row.min, d);
    row.max = std::max(row.max, d);
    row.buckets[static_cast<std::size_t>(std::bit_width(d))] += 1;
  }
};

// Five processors read and write at random (near their last line, inside a
// phase-dependent window, or the last line again, with accesses that
// straddle two lines) and switch phases at random. Every working-set row
// must equal the oracle's exactly.
TEST(SightReuse, RandomMultiProcessorTraceMatchesMoveToFrontOracle) {
  constexpr int kProcs = 5;
  constexpr std::uint32_t kLines = 1536;
  constexpr int kAccesses = 80000;
  alignas(64) static char buf[64 * kLines];
  auto sm = make_sight(kProcs);
  feed_region(*sm, buf, sizeof(buf), HomePolicy::kInterleavedBlock, "fixture.buf");
  ReuseOracle oracle(kProcs, kLines);

  Rng rng(0x5eed5164);
  std::array<int, kProcs> phase{};
  std::array<std::uint32_t, kProcs> last{};
  for (int p = 0; p < kProcs; ++p) {
    phase[static_cast<std::size_t>(p)] = static_cast<int>(Phase::kOther);
    feed_phase(*sm, p, Phase::kOther);
  }
  std::uint64_t now = 0;
  for (int i = 0; i < kAccesses; ++i) {
    const int p = static_cast<int>(rng.next_below(kProcs));
    const auto pi = static_cast<std::size_t>(p);
    if (rng.next_below(400) == 0) {
      phase[pi] = static_cast<int>(rng.next_below(kNumPhases));
      feed_phase(*sm, p, static_cast<Phase>(phase[pi]));
    }
    std::uint32_t line = last[pi];
    const std::uint64_t pick = rng.next_below(10);
    if (pick >= 1 && pick < 6) {
      const auto near = static_cast<std::int64_t>(line) +
                        static_cast<std::int64_t>(rng.next_below(17)) - 8;
      line = static_cast<std::uint32_t>(std::clamp<std::int64_t>(near, 0, kLines - 1));
    } else if (pick >= 6) {
      line = static_cast<std::uint32_t>(phase[pi]) * 160 +
             static_cast<std::uint32_t>(rng.next_below(700));
    }
    const std::size_t off = std::size_t{line} * 64 + rng.next_below(64);
    const std::size_t n = 1 + rng.next_below(16);
    const std::uint64_t kind = rng.next_below(3);
    if (kind == 0) {
      feed_write(*sm, p, buf + off, n, now);
    } else if (kind == 1) {
      feed_read(*sm, p, buf + off, n, now);
    } else {
      feed_read_shared(*sm, p, buf + off, n);
    }
    const std::size_t end_line = std::min<std::size_t>((off + n - 1) / 64, kLines - 1);
    for (std::size_t l = off / 64; l <= end_line; ++l)
      oracle.access(p, phase[pi], static_cast<std::uint32_t>(l));
    last[pi] = static_cast<std::uint32_t>(end_line);
    now += 10;
  }

  // A tracker holds at most max(1024, 2 x distinct lines) slots and spends
  // one per access to a line other than its last, so this many accesses
  // force at least four compactions per processor, each over vacated slots.
  for (int p = 0; p < kProcs; ++p)
    ASSERT_GT(oracle.moves[static_cast<std::size_t>(p)], 4u * 2u * kLines) << "proc " << p;

  const SightReport rep = sm->build_report(CellResolver{});
  std::size_t expected_rows = 0;
  for (int p = 0; p < kProcs; ++p) {
    for (int ph = 0; ph < kNumPhases; ++ph) {
      const ReuseOracle::Row& want =
          oracle.rows[static_cast<std::size_t>(p)][static_cast<std::size_t>(ph)];
      const sight::WorkingSetRow* got = nullptr;
      for (const sight::WorkingSetRow& w : rep.working_set)
        if (w.proc == p && w.phase == ph) got = &w;
      if (want.distinct == 0) {
        EXPECT_EQ(got, nullptr) << "proc " << p << " phase " << ph;
        continue;
      }
      ++expected_rows;
      ASSERT_NE(got, nullptr) << "proc " << p << " phase " << ph;
      const std::string at = "proc " + std::to_string(p) + " phase " + std::to_string(ph);
      EXPECT_EQ(got->distinct_lines, want.distinct) << at;
      EXPECT_EQ(got->cold, want.cold) << at;
      ASSERT_EQ(got->reuse.count(), want.count) << at;
      EXPECT_EQ(got->reuse.stat().sum(), static_cast<double>(want.sum)) << at;
      if (want.count > 0) {
        EXPECT_EQ(got->reuse.stat().min(), static_cast<double>(want.min)) << at;
        EXPECT_EQ(got->reuse.stat().max(), static_cast<double>(want.max)) << at;
      }
      for (int b = 0; b < Distribution::kBuckets; ++b)
        EXPECT_EQ(got->reuse.bucket_count(b), want.buckets[static_cast<std::size_t>(b)])
            << at << " bucket " << b;
    }
  }
  EXPECT_EQ(rep.working_set.size(), expected_rows);
}

// --- observer plumbing ---

TEST(SightModelTest, ObservedRegionsDoNotReachTheInnerModel) {
  auto sm = make_sight(2);
  alignas(64) static char lockwords[256];
  sm->add_observed_region(lockwords, sizeof(lockwords), "locks");
  // The observer resolves the lock word in its own table; the protocol
  // model never sees the region (registering it there would renumber blocks
  // and change virtual time).
  std::uint64_t now = 0;
  feed_lock(*sm, 0, ChargeKind::kAcquire, lockwords + 0, now);
  feed_lock(*sm, 0, ChargeKind::kRelease, lockwords + 0, now + 10);
  feed_lock(*sm, 1, ChargeKind::kAcquire, lockwords + 0, now + 20);
  feed_lock(*sm, 1, ChargeKind::kRelease, lockwords + 0, now + 30);
  const SightReport rep = sm->build_report(CellResolver{});
  EXPECT_EQ(rep.lines_observed, 1u);
  // Acquire = read-then-write of the word: the contended lock is migratory.
  EXPECT_EQ(class_lines(rep, LineClass::kMigratory), 1u);
}

TEST(SightPath, FlagBeatsEnvAndEnvEnables) {
  ::setenv("PTB_SIGHT", "/tmp/env_sight.json", 1);
  EXPECT_EQ(sight::sight_path_from("/tmp/flag.json"), "/tmp/flag.json");
  EXPECT_EQ(sight::sight_path_from(""), "/tmp/env_sight.json");
  EXPECT_TRUE(sight::default_sight_enabled());
  ::setenv("PTB_SIGHT", "0", 1);
  EXPECT_FALSE(sight::default_sight_enabled());
  ::unsetenv("PTB_SIGHT");
  EXPECT_EQ(sight::sight_path_from(""), "");
  EXPECT_FALSE(sight::default_sight_enabled());
}

// --- end to end over the simulator ---

ExperimentSpec sight_spec(const char* platform, Algorithm alg, int n, int nprocs) {
  ExperimentSpec spec;
  spec.platform = platform;
  spec.algorithm = alg;
  spec.n = n;
  spec.nprocs = nprocs;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  spec.sight = true;
  return spec;
}

// The tentpole guarantee: sight forwards every latency unchanged, so the
// whole algorithm × platform matrix must be bit-identical with and without
// the observer attached.
TEST(SightEndToEnd, BitIdenticalAcrossTheAlgorithmPlatformMatrix) {
  for (const std::string& platform : PlatformSpec::all_names()) {
    for (Algorithm alg : all_algorithms()) {
      ExperimentSpec spec = sight_spec(platform.c_str(), alg, 600, 4);
      ExperimentRunner runner;  // shares the cached sequential baseline
      spec.sight = false;
      const ExperimentResult plain = runner.run(spec);
      spec.sight = true;
      const ExperimentResult sighted = runner.run(spec);
      const std::string cfg = platform + "/" + algorithm_name(alg);
      EXPECT_EQ(first_difference(sighted.run, plain.run), "") << cfg;
      EXPECT_EQ(sighted.seq_seconds, plain.seq_seconds) << cfg;
      EXPECT_FALSE(plain.sight.enabled);
      EXPECT_TRUE(sighted.sight.enabled) << cfg;
      EXPECT_GT(sighted.sight.lines_observed, 0u) << cfg;
    }
  }
}

// All three observers stacked (sight outermost, wrapping race, wrapping the
// protocol) still perturb nothing.
TEST(SightEndToEnd, CombinedSightRaceProfIsBitIdentical) {
  ExperimentSpec spec = sight_spec("typhoon0_hlrc", Algorithm::kOrig, 1500, 4);
  spec.sight = false;
  ExperimentRunner plain_runner;
  const ExperimentResult plain = plain_runner.run(spec);
  spec.sight = true;
  spec.race = true;
  spec.prof = true;
  ExperimentRunner full_runner;
  const ExperimentResult full = full_runner.run(spec);
  EXPECT_EQ(first_difference(full.run, plain.run), "");
  EXPECT_EQ(full.seq_seconds, plain.seq_seconds);
  ASSERT_TRUE(full.sight.enabled);
  ASSERT_TRUE(full.race.enabled);
  EXPECT_EQ(full.race.races, 0u);
  ASSERT_TRUE(full.profile.enabled);
}

// The paper's SPACE claim made data-centric: each processor builds its own
// subtree in its own spatial region, so during the build phase the cell
// lines it touches are overwhelmingly its own — only the handful of shared
// upper-tree cells where the subtrees link up are touched cross-processor
// (empirically ~2% of build-phase cell lines at n=2048/p=4) — and none of
// the write traffic is false sharing.
TEST(SightEndToEnd, SpaceBuildPhaseCellLinesArePrivateWithNoFalseSharing) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("challenge", Algorithm::kSpace, 2048, 4));
  ASSERT_TRUE(r.sight.enabled);

  std::uint64_t cell_build_lines = 0, cell_build_private = 0;
  for (const sight::ClassCell& c : r.sight.classes) {
    if (c.phase != static_cast<int>(Phase::kTreeBuild) || c.scope != "cells") continue;
    cell_build_lines += c.lines;
    if (c.cls == LineClass::kPrivate) cell_build_private += c.lines;
  }
  ASSERT_GT(cell_build_lines, 0u);
  EXPECT_GE(static_cast<double>(cell_build_private),
            0.95 * static_cast<double>(cell_build_lines))
      << "private " << cell_build_private << " of " << cell_build_lines;

  for (const sight::Finding& f : r.sight.false_sharing)
    EXPECT_EQ(f.phase_hits[static_cast<std::size_t>(Phase::kTreeBuild)], 0u)
        << f.region << " line " << f.line;
}

// ORIG is the contrast: every processor inserts through the shared upper
// tree, so build-phase cell lines cannot all be private.
TEST(SightEndToEnd, OrigBuildPhaseSharesCells) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("challenge", Algorithm::kOrig, 2048, 4));
  ASSERT_TRUE(r.sight.enabled);
  std::uint64_t shared_lines = 0;
  for (const sight::ClassCell& c : r.sight.classes) {
    if (c.phase != static_cast<int>(Phase::kTreeBuild) || c.scope != "cells") continue;
    if (c.cls != LineClass::kPrivate) shared_lines += c.lines;
  }
  EXPECT_GT(shared_lines, 0u);
}

TEST(SightEndToEnd, JsonIsWellFormedAndMetricsAreIngested) {
  ExperimentRunner runner;
  const ExperimentResult r =
      runner.run(sight_spec("origin2000", Algorithm::kLocal, 1024, 4));
  ASSERT_TRUE(r.sight.enabled);
  EXPECT_EQ(r.sight.platform, "origin2000");
  EXPECT_EQ(r.sight.algorithm, "LOCAL");
  EXPECT_EQ(r.sight.nprocs, 4);

  const std::string json = sight_json(r.sight);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const char* key : {"provenance", "window_ns", "total_classes", "classes",
                          "false_sharing", "working_set", "reuse_p95"})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  EXPECT_DOUBLE_EQ(r.metrics.value("sight.lines_observed", {}),
                   static_cast<double>(r.sight.lines_observed));
  EXPECT_DOUBLE_EQ(r.metrics.value("sight.false_sharing_hits", {}),
                   static_cast<double>(r.sight.false_sharing_hits));
  double class_sum = 0.0;
  for (int c = 1; c < sight::kNumClasses; ++c)
    class_sum += r.metrics.value(
        "sight.class_lines",
        {{"class", line_class_name(static_cast<LineClass>(c))}});
  EXPECT_DOUBLE_EQ(class_sum, static_cast<double>(r.sight.lines_observed));
  // Working sets flow into the registry per (proc, phase).
  EXPECT_GT(r.metrics.sum("sight.ws_distinct_lines"), 0.0);
}

}  // namespace
}  // namespace ptb
