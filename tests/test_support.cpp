// Unit tests for the support utilities: RNG determinism and distribution
// sanity, statistics accumulators, histogram, table printer, CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ptb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform(-1.0, 1.0));
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 3.0), 0.02);
}

TEST(Rng, NextBelowIsBounded) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(17);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[r.next_below(8)];
  for (int c : seen) EXPECT_GT(c, 800);  // each bucket near 1000
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.next_normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequentialAdds) {
  RunningStat all, a, b;
  const double xs[] = {3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5};
  for (int i = 0; i < 8; ++i) {
    all.add(xs[i]);
    (i < 3 ? a : b).add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(RunningStat, MergeWithEmptyEitherSide) {
  RunningStat a, b;
  a.add(2.0);
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // empty lhs: copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Distribution, BucketEdges) {
  Distribution d;
  d.add(0.0);   // [0,1) -> bucket 0
  d.add(0.99);  // bucket 0
  d.add(1.0);   // [1,2) -> bucket 1
  d.add(2.0);   // [2,4) -> bucket 2
  d.add(3.99);  // bucket 2
  d.add(4.0);   // [4,8) -> bucket 3
  EXPECT_EQ(d.count(), 6u);
  EXPECT_EQ(d.bucket_count(0), 2u);
  EXPECT_EQ(d.bucket_count(1), 1u);
  EXPECT_EQ(d.bucket_count(2), 2u);
  EXPECT_EQ(d.bucket_count(3), 1u);
}

TEST(Distribution, HugeSampleClampsToLastBucket) {
  Distribution d;
  d.add(1e30);
  EXPECT_EQ(d.bucket_count(Distribution::kBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(d.stat().max(), 1e30);
}

TEST(Distribution, QuantileBoundsAndMonotonicity) {
  Distribution d;
  for (int i = 1; i <= 1000; ++i) d.add(static_cast<double>(i));
  EXPECT_EQ(d.quantile(0.0), d.stat().min());
  EXPECT_DOUBLE_EQ(d.quantile(1.0), d.stat().max());
  const double p50 = d.quantile(0.5);
  const double p95 = d.p95();
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, d.stat().min());
  EXPECT_LE(p95, d.stat().max());
  // With log2 buckets the interpolation is coarse but must land in the
  // right power-of-two range: p95 of 1..1000 is in [512, 1024).
  EXPECT_GE(p95, 512.0);
}

TEST(Distribution, EmptyIsSafe) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.quantile(0.5), 0.0);
  EXPECT_EQ(d.p95(), 0.0);
}

TEST(Distribution, MergeAddsBucketsAndMoments) {
  Distribution a, b, all;
  for (double v : {1.0, 10.0, 100.0}) {
    a.add(v);
    all.add(v);
  }
  for (double v : {2.0, 20.0, 200.0}) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 6u);
  EXPECT_DOUBLE_EQ(a.stat().mean(), all.stat().mean());
  for (int i = 0; i < Distribution::kBuckets; ++i)
    EXPECT_EQ(a.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);  // clamps to first
  h.add(42.0);  // clamps to last
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(9), 10.0);
}

TEST(Histogram, ExactBucketBoundariesGoToUpperBucket) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);  // lo edge -> bucket 0
  h.add(1.0);  // boundary between 0 and 1 -> bucket 1 (half-open buckets)
  h.add(9.0);  // -> bucket 9
  h.add(10.0); // hi edge clamps into the last bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(ImbalanceFactor, Balanced) {
  EXPECT_DOUBLE_EQ(imbalance_factor({2.0, 2.0, 2.0}), 1.0);
}

TEST(ImbalanceFactor, Skewed) {
  EXPECT_DOUBLE_EQ(imbalance_factor({1.0, 1.0, 4.0}), 2.0);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo");
  t.set_header({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  // Header divider present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TableDeathTest, RowWiderOrNarrowerThanTheHeaderAborts) {
  Table t("demo");
  t.set_header({"platform", "ORIG", "best"});
  t.add_row({"challenge", "12.1", "ORIG"});
  EXPECT_DEATH(t.add_row({"paragon", "2.4", "5.1", "SPACE"}), "row width differs");
  EXPECT_DEATH(t.add_row({"paragon", "2.4"}), "row width differs");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0, ""), 3);
  EXPECT_EQ(cli.get_int("beta", 0, ""), 7);
  EXPECT_TRUE(cli.get_bool("flag", false, ""));
  EXPECT_EQ(cli.get_string("gamma", "dflt", ""), "dflt");
  cli.finish();
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--sizes=1,2,30"};
  Cli cli(2, const_cast<char**>(argv));
  const auto v = cli.get_int_list("sizes", "", "");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 30);
  EXPECT_TRUE(cli.get_int_list("procs", "", "").empty());
  EXPECT_EQ(cli.get_int_list("steps", "4,8", ""), (std::vector<std::int64_t>{4, 8}));
  cli.finish();
}

TEST(Cli, ParsesBoolsAndDoubles) {
  const char* argv[] = {"prog", "--a=no", "--b=1", "--c=yes", "--d=0", "--theta=0.25"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_FALSE(cli.get_bool("a", true, ""));
  EXPECT_TRUE(cli.get_bool("b", false, ""));
  EXPECT_TRUE(cli.get_bool("c", false, ""));
  EXPECT_FALSE(cli.get_bool("d", true, ""));
  EXPECT_EQ(cli.get_double("theta", 1.0, ""), 0.25);
  EXPECT_EQ(cli.get_double("eps", 1e-9, ""), 1e-9);
  cli.finish();
}

/// Parses the one flag `arg` and reads it with `get`.
template <class Get>
void parse(const char* arg, Get get) {
  const char* argv[] = {"prog", arg};
  Cli cli(2, const_cast<char**>(argv));
  get(cli);
}

// Each getter reads the whole token; a value it cannot read exits 2 and names
// the flag, rather than running with whatever prefix strtoll/strtod accepted.
TEST(CliDeathTest, MalformedValuesExitTwo) {
  const auto get_int = [](Cli& c) { (void)c.get_int("n", 1, ""); };
  const auto get_double = [](Cli& c) { (void)c.get_double("theta", 1.0, ""); };
  const auto get_bool = [](Cli& c) { (void)c.get_bool("csv", false, ""); };
  const auto get_list = [](Cli& c) { (void)c.get_int_list("sizes", "", ""); };
  EXPECT_EXIT(parse("--n=abc", get_int), testing::ExitedWithCode(2), "bad --n: 'abc'");
  EXPECT_EXIT(parse("--n=4x", get_int), testing::ExitedWithCode(2), "bad --n: '4x'");
  EXPECT_EXIT(parse("--n=", get_int), testing::ExitedWithCode(2), "bad --n: ''");
  EXPECT_EXIT(parse("--n", get_int), testing::ExitedWithCode(2), "bad --n: 'true'");
  EXPECT_EXIT(parse("--n=99999999999999999999", get_int), testing::ExitedWithCode(2),
              "bad --n:");
  EXPECT_EXIT(parse("--theta=abc", get_double), testing::ExitedWithCode(2),
              "bad --theta: 'abc'");
  EXPECT_EXIT(parse("--theta=0.5s", get_double), testing::ExitedWithCode(2),
              "bad --theta: '0.5s'");
  EXPECT_EXIT(parse("--csv=maybe", get_bool), testing::ExitedWithCode(2),
              "bad --csv: 'maybe'");
  EXPECT_EXIT(parse("--sizes=1k", get_list), testing::ExitedWithCode(2),
              "bad --sizes: '1k'");
  EXPECT_EXIT(parse("--sizes=", get_list), testing::ExitedWithCode(2), "bad --sizes: ''");
  EXPECT_EXIT(parse("--sizes=8,,16", get_list), testing::ExitedWithCode(2),
              "bad --sizes: '8,,16'");
  EXPECT_EXIT(parse("--sizes=8,", get_list), testing::ExitedWithCode(2),
              "bad --sizes: '8,'");
}

TEST(Cli, RangedGettersAcceptTheirBounds) {
  const char* argv[] = {"prog", "--procs=64", "--warmup=0", "--sizes=1,8", "--theta=0"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("procs", 16, "", 1, 64), 64);
  EXPECT_EQ(cli.get_int("warmup", 2, "", 0), 0);
  EXPECT_EQ(cli.get_int("steps", 2, "", 1), 2);
  EXPECT_EQ(cli.get_int_list("sizes", "", "", 1), (std::vector<std::int64_t>{1, 8}));
  EXPECT_TRUE(cli.get_int_list("threads", "", "", 1, 64).empty());
  EXPECT_EQ(cli.get_double("theta", 1.0, "", 0.0), 0.0);
  EXPECT_EQ(cli.get_double("eps", 0.5, "", 0.0), 0.5);
  cli.finish();
}

// A count outside its range exits 2 and names the bound it breaks, so ptbsim,
// ptbfig and the examples never run (or crash on) a count they cannot run.
TEST(CliDeathTest, OutOfRangeCountsExitTwo) {
  const auto procs = [](Cli& c) { (void)c.get_int("procs", 16, "", 1, 64); };
  const auto warmup = [](Cli& c) { (void)c.get_int("warmup", 2, "", 0); };
  const auto list = [](Cli& c) { (void)c.get_int_list("procs", "", "", 1, 64); };
  EXPECT_EXIT(parse("--procs=0", procs), testing::ExitedWithCode(2),
              "bad --procs: '0' \\(must be >= 1\\)");
  EXPECT_EXIT(parse("--procs=65", procs), testing::ExitedWithCode(2),
              "bad --procs: '65' \\(must be <= 64\\)");
  EXPECT_EXIT(parse("--warmup=-1", warmup), testing::ExitedWithCode(2),
              "bad --warmup: '-1' \\(must be >= 0\\)");
  EXPECT_EXIT(parse("--warmup=2147483648", warmup), testing::ExitedWithCode(2),
              "bad --warmup: '2147483648' \\(must be <= 2147483647\\)");
  EXPECT_EXIT(parse("--procs=8,65", list), testing::ExitedWithCode(2),
              "bad --procs: '8,65' \\(every entry must be <= 64\\)");
  EXPECT_EXIT(parse("--procs=0,8", list), testing::ExitedWithCode(2),
              "bad --procs: '0,8' \\(every entry must be >= 1\\)");
}

// Every argument is a flag or a flag's value: anything else (a positional
// argument, a single-dash flag) is a usage error, not a crash.
TEST(CliDeathTest, PositionalArgumentsExitTwo) {
  const auto none = [](Cli&) {};
  EXPECT_EXIT(parse("foo", none), testing::ExitedWithCode(2),
              "unexpected argument: 'foo' \\(flags start with --\\)");
  EXPECT_EXIT(parse("-n", none), testing::ExitedWithCode(2),
              "unexpected argument: '-n' \\(flags start with --\\)");
}

// A double below its bound, NaN or an infinity exits 2: θ = -1 would run as
// θ = 1 (only θ² is used), NaN as direct summation and ∞ as the root alone.
TEST(CliDeathTest, NegativeOrNonFiniteDoublesExitTwo) {
  const auto theta = [](Cli& c) { (void)c.get_double("theta", 1.0, "", 0.0); };
  EXPECT_EXIT(parse("--theta=-1", theta), testing::ExitedWithCode(2),
              "bad --theta: '-1' \\(must be >= 0\\)");
  EXPECT_EXIT(parse("--theta=nan", theta), testing::ExitedWithCode(2),
              "bad --theta: 'nan' \\(must be finite\\)");
  EXPECT_EXIT(parse("--theta=inf", theta), testing::ExitedWithCode(2),
              "bad --theta: 'inf' \\(must be finite\\)");
  EXPECT_EXIT(parse("--theta=-inf", theta), testing::ExitedWithCode(2),
              "bad --theta: '-inf' \\(must be finite\\)");
}

}  // namespace
}  // namespace ptb
