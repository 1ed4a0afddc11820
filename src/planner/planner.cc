#include "planner/planner.h"

#include <limits>
#include <sstream>

#include "cost/cpu_model.h"
#include "cost/statistics.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"

namespace textjoin {

ExplainPlan PlanChoice::ToExplainPlan() const {
  ExplainPlan plan;
  plan.algorithm = algorithm;
  plan.hhnl_backward = hhnl_backward;
  plan.costs = costs;
  if (hhnl_backward) plan.costs.hhnl = HhnlCost(inputs);  // forward order
  plan.hhnl_backward_cost = hhnl_backward_cost;
  plan.inputs = inputs;
  plan.inner_compression = inner_compression;
  plan.explanation = explanation;
  plan.fallbacks = fallbacks;
  return plan;
}

Result<PlanChoice> JoinPlanner::Plan(const JoinContext& ctx,
                                     const JoinSpec& spec) const {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));

  CostInputs in;
  in.c1 = StatisticsOf(*ctx.inner);
  in.c2 = StatisticsOf(*ctx.outer);
  in.sys = ctx.sys;
  in.query.lambda = spec.lambda;
  in.query.delta = spec.delta;
  in.q = options_.measure_term_overlap
             ? MeasuredTermOverlap(*ctx.outer, *ctx.inner)
             : EstimateTermOverlap(in.c2.num_distinct_terms,
                                   in.c1.num_distinct_terms);
  if (!spec.outer_subset.empty()) {
    in.participating_outer = static_cast<int64_t>(spec.outer_subset.size());
    in.outer_reads_random = true;
  }
  // CPU-model pruning knobs: the predicted CPU cost discounts the work the
  // executor's top-lambda bounds are expected to skip.
  in.block_skip = spec.pruning.block_skip;
  if (spec.pruning.bound_skip || spec.pruning.early_exit) {
    in.pruning_rate = ExpectedPruningRate(in);
  }

  PlanChoice choice;
  choice.inputs = in;
  if (ctx.inner_index != nullptr) {
    choice.inner_compression = ctx.inner_index->compression();
  }
  choice.costs = CompareCosts(in);
  if (options_.consider_backward_hhnl && spec.inner_subset.empty()) {
    choice.hhnl_backward_cost = HhnlBackwardCost(in);
    const double fwd = options_.use_random_model ? choice.costs.hhnl.rand
                                                 : choice.costs.hhnl.seq;
    const double bwd = options_.use_random_model
                           ? choice.hhnl_backward_cost.rand
                           : choice.hhnl_backward_cost.seq;
    if (choice.hhnl_backward_cost.feasible && bwd < fwd) {
      choice.hhnl_backward = true;
      choice.costs.hhnl = choice.hhnl_backward_cost;
    }
  }
  // An algorithm is only eligible if its inputs exist in this context.
  if (ctx.inner_index == nullptr) {
    choice.costs.hvnl.feasible = false;
    choice.costs.hvnl.seq = std::numeric_limits<double>::infinity();
    choice.costs.hvnl.rand = choice.costs.hvnl.seq;
    choice.costs.hvnl.note = "no inverted file on C1";
  }
  if (ctx.inner_index == nullptr || ctx.outer_index == nullptr) {
    choice.costs.vvm.feasible = false;
    choice.costs.vvm.seq = std::numeric_limits<double>::infinity();
    choice.costs.vvm.rand = choice.costs.vvm.seq;
    choice.costs.vvm.note = "missing an inverted file";
  }
  choice.algorithm = options_.use_random_model ? choice.costs.BestRandom()
                                               : choice.costs.BestSequential();
  if (!choice.costs.of(choice.algorithm).feasible) {
    return Status::ResourceExhausted(
        "no algorithm is feasible with this buffer size");
  }

  std::ostringstream os;
  os << "estimated cost (pages, "
     << (options_.use_random_model ? "random" : "sequential") << " model): ";
  auto show = [&](Algorithm a) {
    const AlgorithmCost& c = choice.costs.of(a);
    os << AlgorithmName(a) << "=";
    if (!c.feasible) {
      os << "infeasible";
    } else {
      os << static_cast<int64_t>(options_.use_random_model ? c.rand : c.seq);
    }
    os << " ";
  };
  show(Algorithm::kHhnl);
  show(Algorithm::kHvnl);
  show(Algorithm::kVvm);
  os << "=> " << AlgorithmName(choice.algorithm);
  if (choice.algorithm == Algorithm::kHhnl && choice.hhnl_backward) {
    os << " (backward order)";
  }
  choice.explanation = os.str();
  return choice;
}

namespace {

Result<JoinResult> RunAlgorithm(Algorithm algorithm, bool hhnl_backward,
                                const JoinContext& ctx, const JoinSpec& spec) {
  switch (algorithm) {
    case Algorithm::kHhnl: {
      HhnlJoin join(HhnlJoin::Options{hhnl_backward});
      return join.Run(ctx, spec);
    }
    case Algorithm::kHvnl: {
      HvnlJoin join;
      return join.Run(ctx, spec);
    }
    case Algorithm::kVvm: {
      VvmJoin join;
      return join.Run(ctx, spec);
    }
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace

Result<JoinResult> JoinPlanner::Execute(const JoinContext& ctx,
                                        const JoinSpec& spec,
                                        PlanChoice* chosen) const {
  TEXTJOIN_ASSIGN_OR_RETURN(PlanChoice choice, Plan(ctx, spec));
  for (;;) {
    // A cancelled or expired query never re-plans: IsIoFailure below
    // excludes kCancelled/kDeadlineExceeded, and this checkpoint stops a
    // fallback loop before it starts another full algorithm run.
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "plan"));
    Result<JoinResult> result = RunAlgorithm(
        choice.algorithm,
        choice.algorithm == Algorithm::kHhnl && choice.hhnl_backward, ctx,
        spec);
    if (result.ok() || !options_.allow_fallback ||
        !IsIoFailure(result.status())) {
      if (chosen != nullptr) *chosen = choice;
      return result;
    }
    // Graceful degradation: the device failed under this algorithm. Mark
    // it infeasible and re-plan among the algorithms whose inputs may
    // still be readable.
    const Algorithm failed = choice.algorithm;
    choice.fallbacks.push_back(
        FallbackEvent{failed, result.status().message()});
    AlgorithmCost& cost = choice.costs.of(failed);
    cost.feasible = false;
    cost.seq = std::numeric_limits<double>::infinity();
    cost.rand = cost.seq;
    cost.note = "failed at run time: " + result.status().message();
    if (failed == Algorithm::kHhnl) choice.hhnl_backward = false;
    choice.algorithm = options_.use_random_model
                           ? choice.costs.BestRandom()
                           : choice.costs.BestSequential();
    if (!choice.costs.of(choice.algorithm).feasible) {
      if (chosen != nullptr) *chosen = choice;
      return Status(result.status().code(),
                    "all feasible algorithms failed; last error: " +
                        result.status().message());
    }
    choice.explanation += "; " + std::string(AlgorithmName(failed)) +
                          " failed at run time => fallback to " +
                          AlgorithmName(choice.algorithm);
  }
}

Result<AnalyzedJoin> JoinPlanner::ExecuteAnalyze(
    const JoinContext& ctx, const JoinSpec& spec,
    const ExplainOptions& options) const {
  AnalyzedJoin out;
  QueryStatsCollector collector(ctx.outer != nullptr ? ctx.outer->disk()
                                                     : nullptr);
  JoinContext metered = ctx;
  metered.stats = &collector;
  TEXTJOIN_ASSIGN_OR_RETURN(out.result,
                            Execute(metered, spec, &out.plan));
  out.stats = collector.Finish();
  if (ctx.governor != nullptr) {
    out.stats.governance = GovernanceStats::FromGovernor(*ctx.governor);
  }
  out.report = RenderExplainAnalyze(out.plan.ToExplainPlan(), out.stats,
                                    options);
  return out;
}

}  // namespace textjoin
