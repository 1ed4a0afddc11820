#include "obs/explain.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cost/cpu_model.h"
#include "kernel/calibrate.h"
#include "kernel/dispatch.h"

namespace textjoin {

namespace {

std::string Fixed(double v, int width = 10) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.2f", width, v);
  return buf;
}

std::string Dash(int width = 10) {
  std::string s(width - 1, ' ');
  s += '-';
  return s;
}

std::string Pad(const std::string& s, size_t width) {
  std::string out = s;
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

// Signed relative error of `measured` against `predicted`, e.g. "+5.7%".
std::string RelError(double measured, double predicted) {
  if (!(predicted > 0)) return Dash(8);
  const double err = (measured - predicted) / predicted * 100.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+7.1f%%", err);
  return buf;
}

struct Row {
  std::string label;
  bool has_pred = false;
  double pred_seq = 0;
  double pred_rand = 0;
  bool has_measured = false;
  IoStats io;
  const PhaseStats* phase = nullptr;  // for counters / wall time
};

void AppendCounters(const PhaseStats& phase, std::string* out) {
  if (phase.counters.empty()) return;
  *out += "      counters:";
  for (const PhaseCounter& c : phase.counters) {
    *out += " " + c.name + "=" + std::to_string(c.value);
  }
  *out += "\n";
}

// The calibrated per-cell decode rate of a posting format.
double DecodeNsPerCell(const kernel::CalibratedCosts& cal,
                       PostingCompression format) {
  switch (format) {
    case PostingCompression::kNone:
      return cal.ns_per_cell_fixed;
    case PostingCompression::kDeltaVarint:
      return cal.ns_per_cell_varint;
    case PostingCompression::kGroupVarint:
      return cal.ns_per_cell_gv;
  }
  return cal.ns_per_cell_varint;
}

// The CLI's --compression spelling of a posting format.
const char* FormatName(PostingCompression format) {
  switch (format) {
    case PostingCompression::kNone:
      return "none";
    case PostingCompression::kDeltaVarint:
      return "varint";
    case PostingCompression::kGroupVarint:
      return "group-varint";
  }
  return "none";
}

}  // namespace

double CalibratedCpuNs(const CpuStats& cpu, PostingCompression format) {
  const kernel::CalibratedCosts& cal = kernel::Calibrated();
  return static_cast<double>(cpu.cell_compares) * cal.ns_per_merge_step +
         static_cast<double>(cpu.accumulations) * cal.ns_per_accumulation +
         static_cast<double>(cpu.cells_decoded) *
             DecodeNsPerCell(cal, format);
}

std::string PlanAlgorithmLabel(Algorithm algorithm, bool hhnl_backward) {
  std::string label = AlgorithmName(algorithm);
  if (algorithm == Algorithm::kHhnl && hhnl_backward) label += " backward";
  return label;
}

std::string RenderExplainAnalyze(const ExplainPlan& plan,
                                 const QueryStats& stats,
                                 const ExplainOptions& options) {
  const double alpha = plan.inputs.sys.alpha;
  const AlgorithmCost& chosen =
      plan.hhnl_backward ? plan.hhnl_backward_cost
                         : plan.costs.of(plan.algorithm);
  const std::vector<PhaseCost> predicted =
      CostPhases(plan.algorithm, plan.inputs, plan.hhnl_backward);

  // Pair predicted and measured phases by label, keeping the predicted
  // order first, then any measured-only phases in execution order.
  std::vector<Row> rows;
  for (const PhaseCost& p : predicted) {
    Row r;
    r.label = p.label;
    r.has_pred = true;
    r.pred_seq = p.seq;
    r.pred_rand = p.rand;
    if (const PhaseStats* m = stats.root.Child(p.label)) {
      r.has_measured = true;
      r.io = m->io;
      r.phase = m;
    }
    rows.push_back(r);
  }
  for (const PhaseStats& m : stats.root.children) {
    bool known = false;
    for (const Row& r : rows) {
      if (r.label == m.label) {
        known = true;
        break;
      }
    }
    if (known) continue;
    Row r;
    r.label = m.label;
    r.has_measured = true;
    r.io = m.io;
    r.phase = &m;
    rows.push_back(r);
  }
  const IoStats unattributed = stats.root.io - stats.root.ChildIoSum();
  if (unattributed.sequential_reads != 0 || unattributed.random_reads != 0 ||
      unattributed.page_writes != 0 || unattributed.retry.any()) {
    Row r;
    r.label = "(unattributed)";
    r.has_measured = true;
    r.io = unattributed;
    rows.push_back(r);
  }

  size_t label_width = 22;
  for (const Row& r : rows) {
    label_width = std::max(label_width, r.label.size() + 2);
  }

  std::string out;
  out += "EXPLAIN ANALYZE\n";
  out += "plan: " + PlanAlgorithmLabel(plan.algorithm, plan.hhnl_backward);
  if (!chosen.note.empty()) out += "  (" + chosen.note + ")";
  out += "\n";
  for (const FallbackEvent& f : plan.fallbacks) {
    out += "fallback: " + std::string(AlgorithmName(f.failed)) +
           " failed at run time (" + f.reason + ")\n";
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "predicted: seq=%.2f rand=%.2f  (alpha=%.2f, B=%lld)\n",
                  chosen.seq, chosen.rand, alpha,
                  static_cast<long long>(plan.inputs.sys.buffer_pages));
    out += buf;
    const IoStats& io = stats.root.io;
    std::snprintf(buf, sizeof(buf),
                  "measured:  cost=%.2f  (seq_reads=%lld rand_reads=%lld "
                  "writes=%lld)  error vs seq: %s\n",
                  io.Cost(alpha), static_cast<long long>(io.sequential_reads),
                  static_cast<long long>(io.random_reads),
                  static_cast<long long>(io.page_writes),
                  RelError(io.Cost(alpha), chosen.seq).c_str());
    out += buf;
    if (io.retry.any()) {
      std::snprintf(buf, sizeof(buf),
                    "recovery:  retries=%lld transient=%lld checksum=%lld "
                    "recovered=%lld exhausted=%lld backoff=%.1fms\n",
                    static_cast<long long>(io.retry.retries),
                    static_cast<long long>(io.retry.transient_errors),
                    static_cast<long long>(io.retry.checksum_failures),
                    static_cast<long long>(io.retry.recovered_reads),
                    static_cast<long long>(io.retry.exhausted_reads),
                    io.retry.backoff_ms);
      out += buf;
    }
  }
  if (options.include_alternatives) {
    out += "alternatives:";
    for (Algorithm a :
         {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
      if (a == plan.algorithm) continue;  // the other order prints below
      const AlgorithmCost& c = plan.costs.of(a);
      out += std::string(" ") + AlgorithmName(a);
      if (!c.feasible) {
        out += "=infeasible";
      } else {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "(seq=%.2f rand=%.2f)", c.seq,
                      c.rand);
        out += buf;
      }
    }
    if (plan.hhnl_backward) {
      const AlgorithmCost& fwd = plan.costs.hhnl;
      if (fwd.feasible) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " HHNL-forward(seq=%.2f rand=%.2f)",
                      fwd.seq, fwd.rand);
        out += buf;
      } else {
        out += " HHNL-forward=infeasible";
      }
    } else if (plan.algorithm == Algorithm::kHhnl &&
               plan.hhnl_backward_cost.feasible) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " HHNL-backward(seq=%.2f rand=%.2f)",
                    plan.hhnl_backward_cost.seq, plan.hhnl_backward_cost.rand);
      out += buf;
    }
    out += "\n";
  }

  out += "\n";
  out += Pad("phase", label_width);
  out += "  pred.seq  pred.rand   measured   err.seq\n";
  for (const Row& r : rows) {
    out += Pad("  " + r.label, label_width);
    out += r.has_pred ? Fixed(r.pred_seq) : Dash(10);
    out += " ";
    out += r.has_pred ? Fixed(r.pred_rand) : Dash(10);
    out += " ";
    const double measured = r.has_measured ? r.io.Cost(alpha) : 0.0;
    out += r.has_measured ? Fixed(measured) : Dash(10);
    out += "  ";
    out += (r.has_pred && r.has_measured) ? RelError(measured, r.pred_seq)
                                          : Dash(8);
    out += "\n";
    if (r.has_measured && r.io.retry.any()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "      recovery: retries=%lld checksum=%lld "
                    "recovered=%lld backoff=%.1fms\n",
                    static_cast<long long>(r.io.retry.retries),
                    static_cast<long long>(r.io.retry.checksum_failures),
                    static_cast<long long>(r.io.retry.recovered_reads),
                    r.io.retry.backoff_ms);
      out += buf;
    }
    if (options.include_counters && r.phase != nullptr) {
      AppendCounters(*r.phase, &out);
    }
  }
  if (options.include_counters && !stats.root.counters.empty()) {
    out += "  (query)\n";  // no padding: the row has no number columns
    AppendCounters(stats.root, &out);
  }

  out += "\ncpu: " + stats.root.cpu.ToString() + "\n";
  if (options.include_wall_time) {
    // Bridge from machine-independent counts to this host's nanoseconds.
    // Calibrated constants vary per machine and build, so this line is
    // gated with the other wall-clock output the golden tests exclude.
    const kernel::CalibratedCosts& cal = kernel::Calibrated();
    const PostingCompression format = plan.inner_compression;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "calibrated: merge=%.2fns/step accum=%.2fns "
                  "decode=%.2fns/cell (%s, %s kernels); "
                  "est. cpu wall %.3fms\n",
                  cal.ns_per_merge_step, cal.ns_per_accumulation,
                  DecodeNsPerCell(cal, format), FormatName(format),
                  kernel::Active().name,
                  CalibratedCpuNs(stats.root.cpu, format) * 1e-6);
    out += buf;
  }
  if (stats.root.cpu.any_pruning()) {
    const CpuStats& c = stats.root.cpu;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "pruning: bound_checks=%lld pairs_pruned=%lld "
                  "early_exits=%lld suppressed=%lld blocks_skipped=%lld "
                  "trimmed=%lld\n",
                  static_cast<long long>(c.bound_checks),
                  static_cast<long long>(c.pairs_pruned),
                  static_cast<long long>(c.early_exits),
                  static_cast<long long>(c.candidates_suppressed),
                  static_cast<long long>(c.blocks_skipped),
                  static_cast<long long>(c.accumulators_trimmed));
    out += buf;
  }
  if (plan.inputs.pruning_rate > 0) {
    CpuEstimate est;
    switch (plan.algorithm) {
      case Algorithm::kHhnl:
        est = HhnlCpuCost(plan.inputs);
        break;
      case Algorithm::kHvnl:
        est = HvnlCpuCost(plan.inputs);
        break;
      case Algorithm::kVvm:
        est = VvmCpuCost(plan.inputs);
        break;
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "predicted cpu: total=%.0f  measured=%.0f  err vs pred:%s  "
                  "(pruning rate %.0f%%, pairs_pruned~%.0f)\n",
                  est.Total(), stats.root.cpu.Total(),
                  RelError(stats.root.cpu.Total(), est.Total()).c_str(),
                  plan.inputs.pruning_rate * 100.0, est.pairs_pruned);
    out += buf;
  }
  if (stats.has_buffer_pool()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "buffer pool: hits=%lld misses=%lld hit_rate=%.2f\n",
                  static_cast<long long>(stats.buffer_pool_hits),
                  static_cast<long long>(stats.buffer_pool_misses),
                  stats.BufferPoolHitRate());
    out += buf;
  }
  if (stats.governance.active) {
    const GovernanceStats& g = stats.governance;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "governance: %s, %s; queue wait %.2fms; "
                  "checkpoints=%lld io_polls=%lld\n",
                  g.admission.c_str(), g.outcome.c_str(), g.queue_wait_ms,
                  static_cast<long long>(g.checkpoints),
                  static_cast<long long>(g.io_polls));
    out += buf;
    if (g.deadline_ms > 0 || g.memory_budget_pages > 0) {
      std::snprintf(buf, sizeof(buf),
                    "  limits: deadline=%.1fms memory=%lld pages "
                    "(granted %lld)%s\n",
                    g.deadline_ms,
                    static_cast<long long>(g.memory_budget_pages),
                    static_cast<long long>(g.memory_granted_pages),
                    g.degraded ? " [degraded]" : "");
      out += buf;
    }
    if (g.time_to_cancel_ms >= 0 && options.include_wall_time) {
      std::snprintf(buf, sizeof(buf), "  time to cancel: %.2fms\n",
                    g.time_to_cancel_ms);
      out += buf;
    }
  }
  if (stats.serving.active) {
    const ServingStats& s = stats.serving;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "serving: cache=%s (hits=%lld misses=%lld)",
                  s.cache_hit ? "hit" : "miss",
                  static_cast<long long>(s.cache_hits),
                  static_cast<long long>(s.cache_misses));
    out += buf;
    if (s.scan_fetches > 0 || s.shared_scans > 0) {
      std::snprintf(buf, sizeof(buf), "; scans shared/fetched=%lld/%lld",
                    static_cast<long long>(s.shared_scans),
                    static_cast<long long>(s.scan_fetches));
      out += buf;
    }
    if (!s.tenant.empty()) {
      std::snprintf(buf, sizeof(buf), "; tenant=%s pages=%lld/%lld",
                    s.tenant.c_str(),
                    static_cast<long long>(s.tenant_peak_pages),
                    static_cast<long long>(s.tenant_quota_pages));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "; queue wait %.2fms\n",
                  s.queue_wait_ms);
    out += buf;
  }
  if (options.include_wall_time) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "wall: %.6fs\n", stats.root.wall_seconds);
    out += buf;
  }
  if (!plan.explanation.empty()) {
    out += "\n" + plan.explanation;
    if (out.back() != '\n') out += "\n";
  }
  return out;
}

}  // namespace textjoin
