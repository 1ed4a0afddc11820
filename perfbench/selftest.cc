// The benchmark's own tests: the checker must reject perturbed results,
// the percentile helper must refuse unsupported tails, span self time must
// subtract exactly the direct children's durations, times in reference
// joins must divide by the right reference, and a smoke-sized run of
// every workload must pass every check.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using textjoin::JoinResult;
using textjoin::Match;

JoinResult SampleResult() {
  return JoinResult{
      {3, {Match{7, 0.5}, Match{2, 0.25}, Match{9, 0.25}}},
      {4, {Match{1, 1.0}}},
  };
}

TEST(Checker, AcceptsIdenticalResult) {
  EXPECT_EQ(DiffJoin(SampleResult(), SampleResult()), "");
}

TEST(Checker, RejectsOneFlippedScoreBit) {
  JoinResult got = SampleResult();
  uint64_t bits;
  std::memcpy(&bits, &got[0].matches[1].score, sizeof(bits));
  bits ^= 1;  // last mantissa bit: a one-ulp difference
  std::memcpy(&got[0].matches[1].score, &bits, sizeof(bits));
  EXPECT_NE(DiffJoin(SampleResult(), got), "");
}

TEST(Checker, RejectsSwappedTieOrder) {
  JoinResult got = SampleResult();
  std::swap(got[0].matches[1], got[0].matches[2]);  // both score 0.25
  EXPECT_NE(DiffJoin(SampleResult(), got), "");
}

TEST(Checker, RejectsDroppedRows) {
  JoinResult got = SampleResult();
  got[0].matches.pop_back();
  EXPECT_NE(DiffJoin(SampleResult(), got), "");
  got = SampleResult();
  got.pop_back();
  EXPECT_NE(DiffJoin(SampleResult(), got), "");
}

TEST(Checker, SelectBestBreaksTiesByDocument) {
  std::vector<Match> best =
      SelectBest({Match{5, 1.0}, Match{2, 1.0}, Match{8, 2.0}, Match{1, 0}},
                 3);
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(best[0].doc, 8u);
  EXPECT_EQ(best[1].doc, 2u);
  EXPECT_EQ(best[2].doc, 5u);
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  EXPECT_FALSE(SupportedPercentile(Ramp(999), 0.99).has_value());
  auto p = SupportedPercentile(Ramp(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 990);
  EXPECT_EQ(p->samples, 1000);
  EXPECT_EQ(p->beyond, 10);
}

TEST(Percentile, MedianOfSmallSample) {
  EXPECT_FALSE(SupportedPercentile(Ramp(19), 0.5).has_value());
  auto p = SupportedPercentile(Ramp(20), 0.5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 10);
  EXPECT_EQ(p->beyond, 10);
  EXPECT_EQ(Median({3, 1, 2, 4}), 2.5);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  Tracer t(true);
  const int parent = t.Add(Span{"parent", 0, 10, -1, -1});
  t.Add(Span{"a", 1, 3, parent, -1});
  const int b = t.Add(Span{"b", 4, 9, parent, -1});
  t.Add(Span{"grandchild", 5, 7, b, -1});  // counts against b only
  const std::vector<double> self = t.SelfTimes();
  EXPECT_DOUBLE_EQ(self[parent], 10 - 2 - 5);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[b], 5 - 2);
  EXPECT_DOUBLE_EQ(self[3], 2);
}

TEST(Spans, TimedCallLandsUnderTheOpenSpan) {
  Tracer t(true);
  {
    ScopedSpan outer(&t, "outer", 3);
    const Clock::time_point start = Clock::now();
    const int id = t.Add("timed", start, start + std::chrono::seconds(2), 3);
    EXPECT_EQ(t.spans()[id].parent, 0);
    EXPECT_NEAR(t.spans()[id].end_s - t.spans()[id].start_s, 2, 1e-9);
  }
  Tracer off(false);
  EXPECT_EQ(off.Add("ignored", Clock::now(), Clock::now()), -1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Spans, RecordedSpansNest) {
  Tracer t(true);
  {
    ScopedSpan outer(&t, "outer", 7);
    ScopedSpan inner(&t, "inner", 7);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].op, 7);
  EXPECT_LE(t.spans()[0].start_s, t.spans()[1].start_s);
  EXPECT_GE(t.SelfTimes()[0], 0);

  Tracer off(false);
  { ScopedSpan s(&off, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Reference, DividesByTheMedianOfTheFourAround) {
  // Six reference joins delimit five intervals.
  const std::vector<double> refs = {1, 2, 4, 8, 16, 32};
  const std::vector<Sample> samples = {
      {3, 0},    // refs 0..2: {1, 2, 4}, median 2
      {10, 2},   // refs 1..4: {2, 4, 8, 16}, median 6
      {24, 4}};  // refs 3..5: {8, 16, 32}, median 16
  const std::vector<double> x = OverReference(samples, refs);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
  EXPECT_DOUBLE_EQ(x[1], 10.0 / 6);
  EXPECT_DOUBLE_EQ(x[2], 1.5);
  EXPECT_EQ(Walls(samples, 1e6), (std::vector<double>{3e6, 10e6, 24e6}));
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, EveryCheckPasses) {
  const WorkloadSpec spec = SmokeSized(*FindWorkload(GetParam()));
  for (bool trace : {false, true}) {
    RunOptions options;
    options.seed = 11;
    options.seconds = 1;
    options.trace = trace;
    Report report;
    ASSERT_TRUE(RunWorkload(spec, options, &report).ok());
    EXPECT_GT(report.attempted(), 0);
    EXPECT_EQ(report.failed(), 0) << (report.failures().empty()
                                          ? ""
                                          : report.failures().front());
    EXPECT_TRUE(report.Has(trace ? "planner.regret" : "join_x"));
    for (const auto& [name, m] : report.metrics()) {
      EXPECT_TRUE(std::isfinite(m.value)) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("wsj_dense", "fr_select",
                                           "doe_churn"));

}  // namespace
}  // namespace perfbench
