// Golden-text tests for the EXPLAIN ANALYZE renderer (obs/explain.h):
// each of the three executors (plus the backward HHNL order) is run on a
// fixed seeded fixture against the simulated disk, and the full rendered
// report is compared byte for byte. Everything in the report is
// deterministic once wall-clock time is excluded: the collections are
// seeded, the disk is simulated and the CPU counters are exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storage/disk_manager.h"
#include "cost/cpu_model.h"
#include "cost/statistics.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "kernel/calibrate.h"
#include "obs/explain.h"
#include "obs/query_stats.h"
#include "planner/planner.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::JoinFixture;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

constexpr int64_t kBufferPages = 12;

std::unique_ptr<JoinFixture> GoldenFixture(SimulatedDisk* disk) {
  // Small enough that the reports stay short, big enough that HHNL needs
  // more than one outer batch at kBufferPages.
  return MakeFixture(disk, RandomCollection(disk, "c1", 30, 5, 40, 11),
                     RandomCollection(disk, "c2", 20, 4, 40, 12));
}

CostInputs InputsFor(const JoinFixture& f, const JoinContext& ctx,
                     const JoinSpec& spec) {
  CostInputs in;
  in.c1 = StatisticsOf(f.inner);
  in.c2 = StatisticsOf(f.outer);
  in.sys = ctx.sys;
  in.query.lambda = spec.lambda;
  in.query.delta = spec.delta;
  in.q = MeasuredTermOverlap(f.outer, f.inner);
  // Mirror JoinPlanner::Plan: the default JoinSpec has pruning enabled, so
  // the report carries the pruning counters and the predicted-CPU line.
  if (spec.pruning.bound_skip || spec.pruning.early_exit) {
    in.pruning_rate = ExpectedPruningRate(in);
  }
  return in;
}

// Runs `algo` with a stats collector and renders the deterministic report.
std::string Render(TextJoinAlgorithm& algo, bool hhnl_backward = false) {
  SimulatedDisk disk(256);
  auto f = GoldenFixture(&disk);
  JoinContext ctx = f->Context(kBufferPages);
  JoinSpec spec;
  spec.lambda = 3;

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  auto result = algo.Run(ctx, spec);
  TEXTJOIN_CHECK_OK(result.status());
  QueryStats stats = collector.Finish();

  CostInputs in = InputsFor(*f, ctx, spec);
  ExplainPlan plan;
  plan.algorithm = algo.kind();
  plan.hhnl_backward = hhnl_backward;
  plan.costs = CompareCosts(in);
  plan.hhnl_backward_cost = HhnlBackwardCost(in);
  plan.inputs = in;

  ExplainOptions options;
  options.include_wall_time = false;  // the only nondeterministic field
  return RenderExplainAnalyze(plan, stats, options);
}

void ExpectGolden(const std::string& expected, const std::string& actual) {
  EXPECT_EQ(expected, actual) << "--- actual report ---\n" << actual;
}

TEST(ExplainAnalyzeGolden, Hhnl) {
  HhnlJoin hhnl;
  ExpectGolden(
      R"(EXPLAIN ANALYZE
plan: HHNL  (outer fits in memory)
predicted: seq=4.49 rand=8.49  (alpha=5.00, B=12)
measured:  cost=13.00  (seq_reads=3 rand_reads=2 writes=0)  error vs seq:  +189.4%
alternatives: HVNL(seq=6.49 rand=10.49) VVM(seq=4.49 rand=22.46) HHNL-backward(seq=4.49 rand=22.46)

phase                   pred.seq  pred.rand   measured   err.seq
  read outer                1.56       1.56       6.00   +284.0%
  scan inner                2.93       6.93       7.00   +138.9%
  (query)
      counters: batch_size_X=88 outer_batches=1 bound_tightness_pct=30

cpu: CpuStats{compares=3929, accum=639, heap=462, decoded=0}
pruning: bound_checks=600 pairs_pruned=2 early_exits=0 suppressed=0 blocks_skipped=0 trimmed=0
)",
      Render(hhnl));
}

TEST(ExplainAnalyzeGolden, HhnlBackward) {
  HhnlJoin hhnl(HhnlJoin::Options{/*backward=*/true});
  ExpectGolden(
      R"(EXPLAIN ANALYZE
plan: HHNL backward  (1 outer pass(es))
predicted: seq=4.49 rand=22.46  (alpha=5.00, B=12)
measured:  cost=13.00  (seq_reads=3 rand_reads=2 writes=0)  error vs seq:  +189.4%
alternatives: HVNL(seq=6.49 rand=10.49) VVM(seq=4.49 rand=22.46) HHNL-forward(seq=4.49 rand=8.49)

phase                   pred.seq  pred.rand   measured   err.seq
  read inner batch          2.93      14.65       7.00   +138.9%
  rescan outer              1.56       7.81       6.00   +284.0%
  (query)
      counters: batch_size_X=103 inner_batches=1 bound_tightness_pct=30

cpu: CpuStats{compares=3929, accum=639, heap=462, decoded=0}
pruning: bound_checks=600 pairs_pruned=2 early_exits=0 suppressed=0 blocks_skipped=0 trimmed=0
)",
      Render(hhnl, /*hhnl_backward=*/true));
}

TEST(ExplainAnalyzeGolden, Hvnl) {
  HvnlJoin hvnl;
  ExpectGolden(
      R"(EXPLAIN ANALYZE
plan: HVNL  (cache holds entire inverted file)
predicted: seq=6.49 rand=10.49  (alpha=5.00, B=12)
measured:  cost=20.00  (seq_reads=5 rand_reads=3 writes=0)  error vs seq:  +208.1%
alternatives: HHNL(seq=4.49 rand=8.49) VVM(seq=4.49 rand=22.46)

phase                     pred.seq  pred.rand   measured   err.seq
  read outer                  1.56       5.56       6.00   +284.0%
  load btree                  2.00       2.00       7.00   +250.0%
  probe inverted entries      2.93       2.93       7.00   +138.9%
  (query)
      counters: cache_capacity_X=79 directory_probes=80 entry_fetches=0 cache_hits=69 evictions=0 suppressed_candidates=54 theta_rebuilds=20 blocks_skipped=2 accumulators_trimmed=58

cpu: CpuStats{compares=657, accum=586, heap=361, decoded=121}
pruning: bound_checks=559 pairs_pruned=0 early_exits=0 suppressed=54 blocks_skipped=2 trimmed=58
)",
      Render(hvnl));
}

TEST(ExplainAnalyzeGolden, Vvm) {
  VvmJoin vvm;
  ExpectGolden(
      R"(EXPLAIN ANALYZE
plan: VVM  (1 pass(es))
predicted: seq=4.49 rand=22.46  (alpha=5.00, B=12)
measured:  cost=13.00  (seq_reads=3 rand_reads=2 writes=0)  error vs seq:  +189.4%
alternatives: HHNL(seq=4.49 rand=8.49) HVNL(seq=6.49 rand=10.49)

phase                   pred.seq  pred.rand   measured   err.seq
  merge scan                4.49      22.46      13.00   +189.4%
  (query)
      counters: passes=1 suppressed_candidates=0 theta_rebuilds=0 blocks_skipped=0 accumulators_trimmed=0

cpu: CpuStats{compares=711, accum=642, heap=464, decoded=230}
pruning: bound_checks=23 pairs_pruned=0 early_exits=0 suppressed=0 blocks_skipped=0 trimmed=0
)",
      Render(vvm));
}

// The golden fixture's expected pruning rate is exactly zero (delta*N1 ==
// lambda), so the predicted-CPU line is absent from the goldens above. With a
// smaller lambda the rate is positive and the line must appear.
TEST(ExplainAnalyzeTest, PredictedCpuLineAppearsWhenPruningRatePositive) {
  HhnlJoin hhnl;
  SimulatedDisk disk(256);
  auto f = GoldenFixture(&disk);
  JoinContext ctx = f->Context(kBufferPages);
  JoinSpec spec;
  spec.lambda = 1;

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  auto result = hhnl.Run(ctx, spec);
  TEXTJOIN_CHECK_OK(result.status());
  QueryStats stats = collector.Finish();

  CostInputs in = InputsFor(*f, ctx, spec);
  ASSERT_GT(in.pruning_rate, 0.0);
  ExplainPlan plan;
  plan.algorithm = hhnl.kind();
  plan.costs = CompareCosts(in);
  plan.hhnl_backward_cost = HhnlBackwardCost(in);
  plan.inputs = in;

  ExplainOptions options;
  options.include_wall_time = false;
  std::string report = RenderExplainAnalyze(plan, stats, options);
  EXPECT_NE(report.find("predicted cpu:"), std::string::npos) << report;
  EXPECT_NE(report.find("pruning: bound_checks="), std::string::npos) << report;
}

// ExecuteAnalyze ties it together: the planner's own report must carry the
// chosen algorithm, and the join result must be unaffected by metering.
TEST(ExplainAnalyzeTest, ExecuteAnalyzeMatchesPlainExecute) {
  SimulatedDisk disk(256);
  auto f = GoldenFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  JoinPlanner planner;
  auto analyzed = planner.ExecuteAnalyze(f->Context(kBufferPages), spec);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->result, BruteForceJoin(f->inner, f->outer, f->simctx,
                                             spec));
  EXPECT_NE(analyzed->report.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(analyzed->report.find(PlanAlgorithmLabel(
                analyzed->plan.algorithm, analyzed->plan.hhnl_backward)),
            std::string::npos);
  // The stats tree is rooted at the executed algorithm and saw real I/O.
  EXPECT_EQ(analyzed->stats.root.label,
            PlanAlgorithmLabel(analyzed->plan.algorithm,
                               analyzed->plan.hhnl_backward));
  EXPECT_GT(analyzed->stats.root.io.total_reads(), 0);
  EXPECT_FALSE(analyzed->stats.root.children.empty());
}

// Wall time is the one nondeterministic line; golden tests rely on the
// option that removes it.
TEST(ExplainAnalyzeTest, WallTimeOptionControlsWallLine) {
  SimulatedDisk disk(256);
  auto f = GoldenFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  JoinPlanner planner;
  ExplainOptions with;        // defaults include wall time
  auto analyzed = planner.ExecuteAnalyze(f->Context(kBufferPages), spec, with);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->report.find("wall:"), std::string::npos);
  // The calibrated-cost line rides the same gate: per-step kernel costs
  // and the estimated CPU wall time are machine-dependent, so they only
  // render when wall time does (goldens run with both off).
  EXPECT_NE(analyzed->report.find("calibrated:"), std::string::npos);
  EXPECT_NE(analyzed->report.find("est. cpu wall"), std::string::npos);

  ExplainOptions without;
  without.include_wall_time = false;
  auto quiet = planner.ExecuteAnalyze(f->Context(kBufferPages), spec, without);
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->report.find("wall:"), std::string::npos);
  EXPECT_EQ(quiet->report.find("calibrated:"), std::string::npos);
}

// The calibrated line charges each decoded cell at the rate of the inner
// index's posting format. HVNL decodes inner entries, so its counted
// cells are priced by format: the estimate must equal the counts times
// the matching calibrated rates, and the plan must carry the format the
// planner read off the index.
TEST(ExplainAnalyzeTest, CalibratedLineChargesTheInnerPostingFormat) {
  const kernel::CalibratedCosts& cal = kernel::Calibrated();
  struct Case {
    PostingCompression format;
    const char* name;
    double ns_per_cell;
  };
  for (const Case& c :
       {Case{PostingCompression::kNone, "none", cal.ns_per_cell_fixed},
        Case{PostingCompression::kGroupVarint, "group-varint",
             cal.ns_per_cell_gv}}) {
    SimulatedDisk disk(256);
    auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 5, 40, 11),
                         RandomCollection(&disk, "c2", 20, 4, 40, 12),
                         SimilarityConfig{}, c.format);
    JoinContext ctx = f->Context(kBufferPages);
    JoinSpec spec;
    spec.lambda = 3;
    auto choice = JoinPlanner().Plan(ctx, spec);
    ASSERT_TRUE(choice.ok());
    ExplainPlan plan = choice->ToExplainPlan();
    EXPECT_EQ(plan.inner_compression, c.format) << c.name;
    plan.algorithm = Algorithm::kHvnl;

    QueryStatsCollector collector(&disk);
    ctx.stats = &collector;
    HvnlJoin hvnl;
    ASSERT_TRUE(hvnl.Run(ctx, spec).ok());
    const QueryStats stats = collector.Finish();
    const CpuStats& cpu = stats.root.cpu;
    ASSERT_GT(cpu.cells_decoded, 0) << c.name;

    const double expected_ns =
        static_cast<double>(cpu.cell_compares) * cal.ns_per_merge_step +
        static_cast<double>(cpu.accumulations) * cal.ns_per_accumulation +
        static_cast<double>(cpu.cells_decoded) * c.ns_per_cell;
    EXPECT_EQ(CalibratedCpuNs(cpu, c.format), expected_ns) << c.name;

    const std::string report = RenderExplainAnalyze(plan, stats);
    char want[160];
    std::snprintf(want, sizeof(want), "decode=%.2fns/cell (%s,",
                  c.ns_per_cell, c.name);
    EXPECT_NE(report.find(want), std::string::npos) << want << "\n" << report;
    std::snprintf(want, sizeof(want), "est. cpu wall %.3fms",
                  expected_ns * 1e-6);
    EXPECT_NE(report.find(want), std::string::npos) << want << "\n" << report;
  }
}

}  // namespace
}  // namespace textjoin
