#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "storage/disk_manager.h"
#include "cost/cpu_model.h"
#include "cost/statistics.h"
#include "obs/query_stats.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::MakeFixture;
using testing_util::RandomCollection;

CostInputs InputsFor(const testing_util::JoinFixture& f, int64_t B,
                     const JoinSpec& spec) {
  CostInputs in;
  in.c1 = StatisticsOf(f.inner);
  in.c2 = StatisticsOf(f.outer);
  in.sys.buffer_pages = B;
  in.sys.page_size = f.disk->page_size();
  in.sys.alpha = 5.0;
  in.query.lambda = spec.lambda;
  in.query.delta = MeasuredDelta(f.inner, f.outer);
  in.q = MeasuredTermOverlap(f.outer, f.inner);
  return in;
}

TEST(CpuStatsTest, ArithmeticAndToString) {
  CpuStats a{10, 20, 5, 7};
  CpuStats b{1, 2, 3, 4};
  a += b;
  EXPECT_EQ(a.cell_compares, 11);
  EXPECT_EQ(a.accumulations, 22);
  EXPECT_EQ(a.heap_offers, 8);
  EXPECT_EQ(a.cells_decoded, 11);
  EXPECT_DOUBLE_EQ(a.Total(), 52.0);
  EXPECT_NE(a.ToString().find("accum=22"), std::string::npos);
}

// The key structural property: all three algorithms perform EXACTLY the
// same number of similarity accumulations — one per (pair, common term),
// i.e. sum over shared terms of df1 * df2 — at any lambda, since none of
// them prunes. HHNL is checked in both orders and with several outer
// batches.
TEST(CpuCountingTest, AccumulationsIdenticalAcrossAlgorithms) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 50, 6, 60, 71),
                       RandomCollection(&disk, "c2", 35, 5, 60, 72));
  JoinSpec spec;
  spec.lambda = 4;

  int64_t expected = 0;  // sum over shared terms of df1 * df2
  for (const auto& [term, df2] : f->outer.doc_freq_map()) {
    expected += f->inner.DocumentFrequency(term) * df2;
  }

  const HhnlJoin hhnl;
  const HhnlJoin hhnl_backward(HhnlJoin::Options{/*backward=*/true});
  const HvnlJoin hvnl;
  const VvmJoin vvm;
  const TextJoinAlgorithm* algos[] = {&hhnl, &hhnl_backward, &hvnl, &vvm};
  for (int pass = 0; pass < 4; ++pass) {
    for (const int64_t buffer : {int64_t{8}, int64_t{100}}) {
      if (pass == 3 && buffer == 8) continue;  // VVM's matrix needs room
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(buffer);
      ctx.stats = &collector;
      ASSERT_TRUE(algos[pass]->Run(ctx, spec).ok())
          << "pass " << pass << " B=" << buffer;
      const CpuStats cpu = collector.Finish().root.cpu;
      EXPECT_EQ(cpu.accumulations, expected)
          << "pass " << pass << " B=" << buffer;
    }
  }
}

// HHNL probes every cell of every scanned document once per resident
// batch: compares = batches * scanned cells, exactly, in both orders.
TEST(CpuCountingTest, HhnlComparesAreBatchesTimesScannedCells) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 73),
                       RandomCollection(&disk, "c2", 20, 5, 50, 74));
  JoinSpec spec;
  spec.lambda = 3;
  for (const int64_t buffer : {int64_t{4}, int64_t{100}}) {
    {
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(buffer);
      ctx.stats = &collector;
      ASSERT_TRUE(HhnlJoin().Run(ctx, spec).ok());
      const QueryStats stats = collector.Finish();
      const int64_t batches = stats.root.Counter("outer_batches");
      const int64_t X = HhnlJoin::BatchSize(ctx, spec);
      EXPECT_EQ(batches, (f->outer.num_documents() + X - 1) / X);
      EXPECT_EQ(stats.root.cpu.cell_compares,
                batches * f->inner.total_cells())
          << "forward B=" << buffer;
    }
    {
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(buffer);
      ctx.stats = &collector;
      ASSERT_TRUE(
          HhnlJoin(HhnlJoin::Options{/*backward=*/true}).Run(ctx, spec).ok());
      const QueryStats stats = collector.Finish();
      const int64_t batches = stats.root.Counter("inner_batches");
      EXPECT_GE(batches, 1);
      EXPECT_EQ(stats.root.cpu.cell_compares,
                batches * f->outer.total_cells())
          << "backward B=" << buffer;
    }
  }
}

TEST(CpuCountingTest, VvmDecodesBothFilesPerPass) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 50, 6, 60, 75),
                       RandomCollection(&disk, "c2", 35, 5, 60, 76));
  JoinSpec spec;
  spec.lambda = 3;
  spec.delta = 1.0;
  QueryStatsCollector collector(&disk);
  JoinContext ctx = f->Context(6);  // forces several passes
  ctx.stats = &collector;
  VvmJoin join;
  int64_t passes = VvmJoin::Passes(ctx, spec);
  ASSERT_GT(passes, 1);
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  const CpuStats cpu = collector.Finish().root.cpu;
  EXPECT_EQ(cpu.cells_decoded,
            passes * (f->inner.total_cells() + f->outer.total_cells()));
}

TEST(CpuCountingTest, NullCpuPointerCountsNothing) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 20, 5, 40, 77),
                       RandomCollection(&disk, "c2", 15, 4, 40, 78));
  JoinSpec spec;
  HhnlJoin join;
  auto r = join.Run(f->Context(100), spec);  // ctx.stats == nullptr
  EXPECT_TRUE(r.ok());
}

// The analytic model tracks the measured counters within a modest band
// (its inputs are averages; the collections are genuinely random).
TEST(CpuModelTest, EstimatesTrackMeasurements) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 80, 8, 120, 79),
                       RandomCollection(&disk, "c2", 60, 6, 120, 80));
  JoinSpec spec;
  spec.lambda = f->inner.num_documents();
  CostInputs in = InputsFor(*f, 100, spec);

  auto check = [](double measured, double estimated, double band,
                  const char* what) {
    ASSERT_GT(estimated, 0) << what;
    EXPECT_LT(measured / estimated, band) << what << " measured=" << measured
                                          << " estimated=" << estimated;
    EXPECT_GT(measured / estimated, 1.0 / band)
        << what << " measured=" << measured << " estimated=" << estimated;
  };

  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    HhnlJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = HhnlCpuCost(in);
    check(static_cast<double>(cpu.cell_compares), est.cell_compares, 1.5,
          "HHNL compares");
    check(static_cast<double>(cpu.accumulations), est.accumulations, 2.0,
          "HHNL accumulations");
  }
  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    HvnlJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = HvnlCpuCost(in);
    check(static_cast<double>(cpu.accumulations), est.accumulations, 2.0,
          "HVNL accumulations");
  }
  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    VvmJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = VvmCpuCost(in);
    check(static_cast<double>(cpu.cells_decoded), est.cells_decoded, 1.2,
          "VVM decoded");
  }
}

TEST(CpuModelTest, CombinedCostAddsWeightedCpu) {
  AlgorithmCost io;
  io.seq = 100;
  io.rand = 500;
  CpuEstimate cpu;
  cpu.accumulations = 1000;
  EXPECT_DOUBLE_EQ(CombinedCost(io, cpu, 100.0), 110.0);
  io.feasible = false;
  io.seq = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(CombinedCost(io, cpu, 100.0)));
}

TEST(CpuModelTest, AccumulationEstimateConsistentAcrossAlgorithms) {
  CostInputs in;
  in.c1 = {1000, 50, 5000};
  in.c2 = {800, 40, 4000};
  in.sys = {10000, 4096, 5.0};
  in.query = {20, 0.1};
  in.q = 0.8;
  double a1 = HhnlCpuCost(in).accumulations;
  double a2 = HvnlCpuCost(in).accumulations;
  double a3 = VvmCpuCost(in).accumulations;
  EXPECT_NEAR(a1, a2, 1e-6 * a1);
  EXPECT_NEAR(a1, a3, 1e-6 * a1);
}

}  // namespace
}  // namespace textjoin
