// Tests for ptb::trace — the event tracer (ring buffers, overflow policy,
// Chrome JSON serialization) and the metrics registry, plus an end-to-end
// check that a traced 4-processor run emits well-formed JSON with the
// expected track structure and does not perturb the virtual results.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"
#include "json_checker.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace ptb {
namespace {

using testutil::JsonChecker;

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, "x\"y", true, null]})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": )").valid());
  EXPECT_FALSE(JsonChecker(R"([1, 2],)").valid());
  EXPECT_FALSE(JsonChecker("").valid());
}

// --- Tracer ---

TEST(Tracer, RecordsSpansAndInstants) {
  trace::Tracer t(2);
  t.span(0, trace::kCatPhase, "treebuild", 100, 250);
  t.instant(1, trace::kCatMem, "read-miss", 40, 3);
  ASSERT_EQ(t.events(0).size(), 1u);
  ASSERT_EQ(t.events(1).size(), 1u);
  const trace::Event& s = t.events(0)[0];
  EXPECT_EQ(s.ts_ns, 100u);
  EXPECT_EQ(s.dur_ns, 150u);
  EXPECT_EQ(s.count, 0u);  // span marker
  const trace::Event& i = t.events(1)[0];
  EXPECT_EQ(i.ts_ns, 40u);
  EXPECT_EQ(i.count, 3u);
  EXPECT_EQ(t.total_events(), 2u);
}

TEST(Tracer, OverflowKeepsFirstAndCountsDrops) {
  trace::Tracer t(1, /*capacity_per_proc=*/4);
  for (std::uint64_t k = 0; k < 10; ++k)
    t.instant(0, trace::kCatSched, "tick", k);
  EXPECT_EQ(t.events(0).size(), 4u);
  EXPECT_EQ(t.events(0)[0].ts_ns, 0u);  // chronological prefix kept
  EXPECT_EQ(t.events(0)[3].ts_ns, 3u);
  EXPECT_EQ(t.dropped(0), 6u);
}

TEST(Tracer, ClearDropsEvents) {
  trace::Tracer t(1);
  t.instant(0, trace::kCatMem, "x", 1);
  t.clear();
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_EQ(t.dropped(0), 0u);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  trace::Tracer t(2, 4);
  t.set_clock_domain("virtual");
  t.span(0, trace::kCatPhase, "forces", 0, 1000);
  t.instant(1, trace::kCatMem, "page-fault", 500, 2);
  for (int k = 0; k < 10; ++k) t.instant(1, trace::kCatSched, "tick", k);  // force drops
  const std::string json = t.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("events dropped (buffer full)"), std::string::npos);
  EXPECT_NE(json.find("\"clock_domain\": \"virtual\""), std::string::npos);
}

TEST(Tracer, PathResolutionFlagBeatsEnv) {
  ::setenv("PTB_TRACE", "/tmp/env.json", 1);
  EXPECT_EQ(trace::trace_path_from("/tmp/flag.json"), "/tmp/flag.json");
  EXPECT_EQ(trace::trace_path_from(""), "/tmp/env.json");
  ::unsetenv("PTB_TRACE");
  EXPECT_EQ(trace::trace_path_from(""), "");
}

// --- MetricsRegistry ---

TEST(Metrics, CounterGaugeAndLookup) {
  trace::MetricsRegistry m;
  m.add("time.phase_ns", trace::proc_phase_label(0, "forces"), 100.0);
  m.add("time.phase_ns", trace::proc_phase_label(0, "forces"), 50.0);
  m.add("time.phase_ns", trace::proc_phase_label(1, "forces"), 30.0);
  m.add("time.phase_ns", trace::proc_phase_label(1, "update"), 7.0);
  m.set("run.nprocs", {}, 2.0);
  EXPECT_DOUBLE_EQ(m.value("time.phase_ns", trace::proc_phase_label(0, "forces")), 150.0);
  EXPECT_DOUBLE_EQ(m.value("time.phase_ns", trace::proc_phase_label(3, "forces")), 0.0);
  EXPECT_DOUBLE_EQ(m.sum("time.phase_ns"), 187.0);
  EXPECT_DOUBLE_EQ(m.sum("time.phase_ns", {{"phase", "forces"}}), 180.0);
  EXPECT_DOUBLE_EQ(m.sum("time.phase_ns", {{"proc", "1"}}), 37.0);
  EXPECT_DOUBLE_EQ(m.max("time.phase_ns", {{"phase", "forces"}}), 150.0);
  EXPECT_DOUBLE_EQ(m.value("run.nprocs", {}), 2.0);
}

TEST(Metrics, LabelOrderDoesNotMatter) {
  trace::MetricsRegistry m;
  m.add("x", {{"b", "2"}, {"a", "1"}}, 5.0);
  EXPECT_DOUBLE_EQ(m.value("x", {{"a", "1"}, {"b", "2"}}), 5.0);
}

TEST(Metrics, PrefixNamesDoNotCollide) {
  trace::MetricsRegistry m;
  m.add("time.phase", {}, 1.0);
  m.add("time.phase_ns", {}, 2.0);
  EXPECT_DOUBLE_EQ(m.sum("time.phase"), 1.0);
  EXPECT_DOUBLE_EQ(m.sum("time.phase_ns"), 2.0);
}

TEST(Metrics, DistributionsMergeAcrossCells) {
  trace::MetricsRegistry m;
  Distribution d0, d1;
  d0.add(10.0);
  d0.add(20.0);
  d1.add(30.0);
  m.record_all("sync.lock_wait_event_ns", trace::proc_label(0), d0);
  m.record_all("sync.lock_wait_event_ns", trace::proc_label(1), d1);
  m.record("sync.lock_wait_event_ns", trace::proc_label(1), 40.0);
  const Distribution all = m.merged("sync.lock_wait_event_ns");
  EXPECT_EQ(all.count(), 4u);
  EXPECT_DOUBLE_EQ(all.stat().mean(), 25.0);
  EXPECT_DOUBLE_EQ(all.stat().max(), 40.0);
  EXPECT_EQ(m.merged("sync.lock_wait_event_ns", trace::proc_label(0)).count(), 2u);
}

TEST(Metrics, CrossProcDistributionMergePreservesCountsAndQuantiles) {
  // One distribution per (proc, phase) cell, as ingest_sight_metrics and the
  // wait-event metrics produce them; merging across processors must preserve
  // total counts, the exact max, and quantile ordering, and a phase filter
  // must slice across all processors at once.
  trace::MetricsRegistry m;
  std::uint64_t expected = 0;
  double max_sample = 0.0;
  for (int p = 0; p < 4; ++p) {
    Distribution build, forces;
    for (int i = 1; i <= 50; ++i) build.add(static_cast<double>(i * (p + 1)));
    for (int i = 1; i <= 10; ++i) forces.add(static_cast<double>(1000 * (p + 1) + i));
    expected += build.count() + forces.count();
    max_sample = std::max(max_sample, forces.stat().max());
    m.record_all("sight.reuse_dist", trace::proc_phase_label(p, "treebuild"), build);
    m.record_all("sight.reuse_dist", trace::proc_phase_label(p, "forces"), forces);
  }
  const Distribution all = m.merged("sight.reuse_dist");
  EXPECT_EQ(all.count(), expected);
  EXPECT_DOUBLE_EQ(all.stat().max(), max_sample);
  EXPECT_LE(all.p50(), all.p95());
  EXPECT_LE(all.p95(), all.p99());

  const Distribution forces_only = m.merged("sight.reuse_dist", {{"phase", "forces"}});
  EXPECT_EQ(forces_only.count(), 40u);
  EXPECT_GE(forces_only.p50(), 1000.0);
  const Distribution one_proc =
      m.merged("sight.reuse_dist", trace::proc_phase_label(2, "treebuild"));
  EXPECT_EQ(one_proc.count(), 50u);
  EXPECT_DOUBLE_EQ(one_proc.stat().max(), 150.0);
}

TEST(Tracer, FlowEventsPairUpInChromeJson) {
  trace::Tracer t(2);
  t.flow(0, 1, trace::kCatSync, "lock-handoff", 100, 250);
  ASSERT_EQ(t.events(0).size(), 1u);
  ASSERT_EQ(t.events(1).size(), 1u);
  EXPECT_EQ(t.events(0)[0].flow_ph, 's');
  EXPECT_EQ(t.events(1)[0].flow_ph, 'f');
  EXPECT_EQ(t.events(0)[0].flow_id, t.events(1)[0].flow_id);
  EXPECT_NE(t.events(0)[0].flow_id, 0u);

  const std::string json = t.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);  // bind sink to enclosing slice
  EXPECT_NE(json.find("lock-handoff"), std::string::npos);
}

TEST(Tracer, FlowIdsAreUniquePerPairAndResetOnClear) {
  trace::Tracer t(2);
  t.flow(0, 1, trace::kCatSync, "a", 1, 2);
  t.flow(1, 0, trace::kCatSync, "b", 3, 4);
  EXPECT_NE(t.events(0)[0].flow_id, t.events(1)[1].flow_id);
  t.clear();
  t.flow(0, 1, trace::kCatSync, "c", 5, 6);
  EXPECT_EQ(t.events(0)[0].flow_id, 1u);
}

TEST(Metrics, SumWithZeroMatchingFilterIsZero) {
  trace::MetricsRegistry m;
  m.add("sync.lock_acquires", trace::proc_phase_label(0, "treebuild"), 9.0);
  EXPECT_DOUBLE_EQ(m.sum("sync.lock_acquires", {{"phase", "nonesuch"}}), 0.0);
  EXPECT_DOUBLE_EQ(m.sum("sync.lock_acquires", {{"proc", "7"}}), 0.0);
  EXPECT_DOUBLE_EQ(m.sum("no.such.metric"), 0.0);
  EXPECT_DOUBLE_EQ(m.max("no.such.metric"), 0.0);
}

TEST(Metrics, MergedOverEmptyDistributionsIsEmpty) {
  trace::MetricsRegistry m;
  // No matching cells at all.
  EXPECT_EQ(m.merged("sync.lock_wait_event_ns").count(), 0u);
  // Cells exist but hold empty distributions (record_all of a fresh one).
  m.record_all("sync.lock_wait_event_ns", trace::proc_label(0), Distribution{});
  m.record_all("sync.lock_wait_event_ns", trace::proc_label(1), Distribution{});
  const Distribution all = m.merged("sync.lock_wait_event_ns");
  EXPECT_EQ(all.count(), 0u);
  EXPECT_DOUBLE_EQ(all.p50(), 0.0);
  EXPECT_DOUBLE_EQ(all.p99(), 0.0);
  // A WaitSummary over it reports "no events" rather than garbage.
  const WaitSummary w = wait_summary(all);
  EXPECT_EQ(w.events, 0u);
  EXPECT_DOUBLE_EQ(w.p99_s, 0.0);
}

TEST(Metrics, DistributionQuantilesIncludeP50AndP99) {
  Distribution d;
  for (int i = 1; i <= 1000; ++i) d.add(static_cast<double>(i));
  EXPECT_GT(d.p50(), 0.0);
  EXPECT_LE(d.p50(), d.p95());
  EXPECT_LE(d.p95(), d.p99());
  EXPECT_LE(d.p99(), d.stat().max());
}

TEST(MetricsDeathTest, DuplicateRegisterAcrossKindsIsDetected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  trace::MetricsRegistry m;
  m.add("x.count", trace::proc_label(0), 1.0);
  EXPECT_DEATH(m.record("x.count", trace::proc_label(0), 2.0),
               "already registered as a counter/gauge");
  m.record("y.dist", trace::proc_label(0), 1.0);
  EXPECT_DEATH(m.add("y.dist", trace::proc_label(0), 2.0),
               "already registered as a distribution");
  // Same name with *different* labels is a different cell — allowed.
  m.record("x.count", trace::proc_label(1), 3.0);
  EXPECT_EQ(m.merged("x.count", trace::proc_label(1)).count(), 1u);
}

TEST(Metrics, SelectAndDumpAreDeterministic) {
  trace::MetricsRegistry m;
  m.add("c", trace::proc_label(1), 1.0);
  m.add("c", trace::proc_label(0), 2.0);
  const auto entries = m.select("c");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].labels[0].second, "0");  // sorted keys
  EXPECT_EQ(entries[1].labels[0].second, "1");
  const std::string dump = m.dump();
  EXPECT_NE(dump.find("c{proc=0} 2"), std::string::npos);
}

// --- end to end: traced 4-processor run ---

TEST(TraceEndToEnd, FourProcRunProducesValidTraceWithoutPerturbingResults) {
  ExperimentSpec spec;
  spec.platform = "typhoon0_hlrc";  // SVM: exercises page faults/twins/diffs
  spec.algorithm = Algorithm::kOrig;  // locks in the tree-build phase
  spec.n = 1500;
  spec.nprocs = 4;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;

  ExperimentRunner plain_runner;
  const ExperimentResult plain = plain_runner.run(spec);

  trace::Tracer tracer(spec.nprocs);
  spec.tracer = &tracer;
  ExperimentRunner traced_runner;
  const ExperimentResult traced = traced_runner.run(spec);

  // Tracing must be a pure observer of the virtual execution.
  EXPECT_EQ(first_difference(traced.run, plain.run), "");
  EXPECT_EQ(traced.seq_seconds, plain.seq_seconds);

  EXPECT_EQ(tracer.nprocs(), 4);
  EXPECT_STREQ(tracer.clock_domain(), "virtual");
  int phase_spans = 0, sync_spans = 0, mem_instants = 0;
  for (int p = 0; p < 4; ++p) {
    bool has_phase = false;
    for (const trace::Event& e : tracer.events(p)) {
      // Compare by content: the kCat* pointers are not address-identical
      // across translation units once ASan disables string-literal merging.
      if (std::strcmp(e.cat, trace::kCatPhase) == 0 && e.count == 0) {
        ++phase_spans;
        has_phase = true;
      }
      if (std::strcmp(e.cat, trace::kCatSync) == 0 && e.count == 0) ++sync_spans;
      if (std::strcmp(e.cat, trace::kCatMem) == 0) ++mem_instants;
    }
    EXPECT_TRUE(has_phase) << "proc " << p << " has no phase spans";
  }
  EXPECT_GE(phase_spans, 4 * kNumPhases - 4);  // every measured phase, each proc
  EXPECT_GT(sync_spans, 0);
  EXPECT_GT(mem_instants, 0);

  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);  // one track per proc
  EXPECT_NE(json.find("treebuild"), std::string::npos);
  EXPECT_NE(json.find("page-fault"), std::string::npos);

  // The registry-derived wait summaries cover the recorded wait spans.
  EXPECT_GT(traced.barrier_wait.events, 0u);
  EXPECT_GE(traced.barrier_wait.max_s, traced.barrier_wait.p95_s);
  EXPECT_GE(traced.barrier_wait.p95_s, 0.0);
}

TEST(TraceEndToEnd, MetricsRegistryIsTheSourceOfScalars) {
  ExperimentSpec spec;
  spec.platform = "origin2000";
  spec.algorithm = Algorithm::kLocal;
  spec.n = 1200;
  spec.nprocs = 4;
  spec.warmup_steps = 1;
  spec.measured_steps = 1;
  ExperimentRunner runner;
  const ExperimentResult r = runner.run(spec);

  ASSERT_FALSE(r.metrics.empty());
  // Scalar conveniences must agree with direct registry queries.
  EXPECT_DOUBLE_EQ(r.metrics.sum("sync.lock_acquires", {{"phase", "treebuild"}}),
                   static_cast<double>(r.treebuild_locks_total));
  EXPECT_DOUBLE_EQ(r.metrics.sum("mem.read_misses"),
                   static_cast<double>(r.mem.read_misses));
  const double total_phase_ns = r.metrics.sum("time.phase_ns");
  EXPECT_GT(total_phase_ns, 0.0);
  // Stall + waits never exceed the phase time that contains them.
  EXPECT_LE(r.metrics.sum("time.mem_stall_ns"), total_phase_ns);
  EXPECT_LE(r.metrics.sum("sync.barrier_wait_ns"), total_phase_ns);
}

}  // namespace
}  // namespace ptb
