// A3: pruning ablation on TREC-shaped workloads. The TREC profiles are
// statistics-only, so each workload is a synthetic collection pair scaled
// down 1:4 in per-document terms (and far down in document count) while
// keeping the profiles' length RATIOS — the quantity the galloping switch
// and the bound checks respond to. Every join runs twice, pruning
// on (the default JoinSpec) and off, results are verified identical, and
// the table reports the measured CPU counters side by side:
//
//   steps   merge-step CPU cost: cell compares of the document-merge walk
//           plus similarity accumulations
//   total   steps + heap offers + cells decoded + bound checks, i.e.
//           everything the pruned run paid including the checks themselves
//
// plus the candidate pairs skipped outright (HHNL) and accumulator
// admissions suppressed (HVNL/VVM). The FR(x2) x DOE workload is the
// paper's Group 5 merge transform applied to the FR-like side: at a ~23x
// length ratio HHNL gallops with pruning on AND off (the switch is a
// length rule, not a PruningConfig field), so that row isolates what the
// bounds save on top of galloping.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/pruning.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"
#include "storage/disk_manager.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;
constexpr int64_t kBufferPages = 1024;

DocumentCollection Gen(SimulatedDisk* disk, const std::string& name,
                       int64_t docs, double terms, uint64_t seed) {
  // One shared 4000-term universe (Zipf 1.0) so every pair of collections
  // overlaps the way same-domain TREC text does.
  SyntheticSpec spec{docs, terms, 4000, 1.0, 0, seed};
  auto c = GenerateCollection(disk, name, spec);
  TEXTJOIN_CHECK_OK(c.status());
  return std::move(c).value();
}

struct Measured {
  JoinResult result;
  CpuStats cpu;
};

Measured RunOnce(SimulatedDisk* disk, const DocumentCollection& inner,
                 const InvertedFile& index, const DocumentCollection& outer,
                 const InvertedFile& outer_index,
                 const SimilarityContext& simctx, TextJoinAlgorithm& algo,
                 const PruningConfig& pruning, int64_t lambda) {
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &index;
  ctx.outer_index = &outer_index;
  ctx.similarity = &simctx;
  ctx.sys = SystemParams{kBufferPages, kPage, 5.0};
  QueryStatsCollector collector(disk);
  ctx.stats = &collector;
  JoinSpec spec;
  spec.lambda = lambda;
  spec.pruning = pruning;
  auto r = algo.Run(ctx, spec);
  TEXTJOIN_CHECK_OK(r.status());
  return Measured{std::move(r).value(), collector.Finish().root.cpu};
}

int64_t TotalWork(const CpuStats& c) {
  return c.cell_compares + c.accumulations + c.heap_offers + c.cells_decoded +
         c.bound_checks;
}

double Reduction(int64_t off, int64_t on) {
  if (off <= 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(on) / static_cast<double>(off));
}

void RunAblation(SimulatedDisk* disk, const std::string& key,
                 const char* title, const DocumentCollection& inner,
                 const DocumentCollection& outer, int64_t lambda = 20) {
  auto index = InvertedFile::Build(disk, key + ".idx", inner);
  TEXTJOIN_CHECK_OK(index.status());
  auto outer_index = InvertedFile::Build(disk, key + ".oidx", outer);
  TEXTJOIN_CHECK_OK(outer_index.status());
  auto simctx = SimilarityContext::Create(inner, outer, {});
  TEXTJOIN_CHECK_OK(simctx.status());

  std::printf("\n== %s  (lambda=%lld) ==\n", title,
              static_cast<long long>(lambda));
  std::printf("%-6s %13s %13s %8s %13s %13s %8s %9s %9s\n", "algo",
              "steps(off)", "steps(on)", "red%", "total(off)", "total(on)",
              "red%", "pruned", "suppr.");
  HhnlJoin hhnl;
  HvnlJoin hvnl;
  VvmJoin vvm;
  struct Row {
    const char* label;
    TextJoinAlgorithm* algo;
  };
  for (const Row& row :
       {Row{"hhnl", &hhnl}, Row{"hvnl", &hvnl}, Row{"vvm", &vvm}}) {
    Measured off = RunOnce(disk, inner, *index, outer, *outer_index, *simctx,
                           *row.algo, PruningConfig::Disabled(), lambda);
    Measured on = RunOnce(disk, inner, *index, outer, *outer_index, *simctx,
                          *row.algo, PruningConfig{}, lambda);
    if (!(off.result == on.result)) {
      std::printf("FATAL: %s pruned result differs on %s\n", row.label, title);
      std::exit(1);
    }
    const int64_t steps_off = off.cpu.cell_compares + off.cpu.accumulations;
    const int64_t steps_on = on.cpu.cell_compares + on.cpu.accumulations;
    std::printf(
        "%-6s %13lld %13lld %7.1f%% %13lld %13lld %7.1f%% %9lld %9lld\n",
        row.label, static_cast<long long>(steps_off),
        static_cast<long long>(steps_on), Reduction(steps_off, steps_on),
        static_cast<long long>(TotalWork(off.cpu)),
        static_cast<long long>(TotalWork(on.cpu)),
        Reduction(TotalWork(off.cpu), TotalWork(on.cpu)),
        static_cast<long long>(on.cpu.pairs_pruned),
        static_cast<long long>(on.cpu.candidates_suppressed));
  }
}

void Main() {
  SimulatedDisk disk(kPage);
  // Per-document terms are the TREC averages / 4 (WSJ 329 -> 82,
  // FR 1017 -> 254, DOE 89 -> 22); document counts are bench-sized.
  DocumentCollection wsj1 = Gen(&disk, "wsj1", 240, 82.0, 11);
  DocumentCollection wsj2 = Gen(&disk, "wsj2", 240, 82.0, 12);
  DocumentCollection fr = Gen(&disk, "fr", 120, 254.0, 13);
  DocumentCollection doe = Gen(&disk, "doe", 400, 22.0, 14);

  // Group 5 transform on the FR side: merging consecutive documents
  // doubles the length skew against DOE (ratio ~23, past the galloping
  // switch at 16).
  auto fr2 = MergeDocuments(&disk, "fr2", fr, 2);
  TEXTJOIN_CHECK_OK(fr2.status());

  std::printf(
      "== A3: exact top-lambda pruning ablation (delta=0.1) ==\n");
  std::printf(
      "steps = cell compares + accumulations (the merge-step CPU cost);\n"
      "total adds heap offers, cells decoded and the bound checks the\n"
      "pruned run spends. Results verified identical on and off.\n");

  RunAblation(&disk, "w1", "WSJ x WSJ (82 terms/doc both sides)", wsj1, wsj2);
  RunAblation(&disk, "w2", "FR x DOE (254 vs 22 terms/doc)", fr, doe);
  RunAblation(&disk, "w3", "FR(x2) x DOE (508 vs 22 terms/doc, gallops)",
              *fr2, doe);
  // Selective query on the short-document profile: a small result budget
  // tightens theta early and DOE-sized documents keep the admission
  // suffix bounds tight, so the HVNL/VVM suppression path engages too.
  DocumentCollection doe1 = Gen(&disk, "doe1", 400, 22.0, 15);
  RunAblation(&disk, "w4", "DOE x DOE, selective", doe1, doe,
              /*lambda=*/3);
}

}  // namespace
}  // namespace textjoin

int main() {
  textjoin::Main();
  return 0;
}
