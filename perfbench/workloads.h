// The benchmark's workloads and the function that runs one of them.
//
// Every workload runs the same session a user of the library runs — build
// two collections with their inverted files, join them top-lambda with the
// planner and with each executor forced, then serve the inner collection
// as a dynamic collection to one closed-loop client that mixes top-lambda
// queries with inserts, deletes and background compactions — so every
// workload reports every end-to-end metric. The workloads differ in the
// shape of the data and the join, which decides the layer that dominates.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core.h"
#include "index/inverted_file.h"
#include "join/similarity.h"

namespace perfbench {

// The join's lambda, the same in every workload (the joins are
// C1 SIMILAR_TO(kJoinLambda) C2).
inline constexpr int64_t kJoinLambda = 20;

struct WorkloadSpec {
  std::string name;

  // Both collections: synthetic, Zipf-distributed terms.
  int64_t num_documents = 0;
  double terms_per_doc = 0;
  int64_t vocabulary = 0;

  // The join.
  double outer_fraction = 1.0;  // < 1: evenly spaced outer_subset of C2
  int64_t buffer_pages = 2000;
  textjoin::SimilarityConfig similarity;
  textjoin::PostingCompression compression =
      textjoin::PostingCompression::kNone;

  // The serving client.
  int64_t compact_every = 100;  // writes between background compactions
  int64_t query_pool = 200;     // Zipf-popular query vectors

  // Serving ops per run, spread evenly over the measured window; join
  // executions fill the rest of it. A fixed count keeps the collection's
  // growth, and so the memory footprint, the same from run to run.
  int64_t serve_ops = 4000;
  // Floors that keep every median and percentile meaningful: join rounds,
  // queries and writes (a p99 needs 1000 samples).
  int64_t min_join_trials = 5;
  int64_t min_queries = 1000;
  int64_t min_writes = 1000;
  int64_t setup_reps = 5;
};

// The three named workloads (see BENCHMARK.json for why each exists).
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// A seconds-scale version of `spec` that still runs every check.
WorkloadSpec SmokeSized(const WorkloadSpec& spec);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans and phase trees (empty: none).
  std::string trace_path;
};

// Runs `spec` once. With options.trace false it fills only the
// end-to-end metrics; with options.trace true it also runs the traced
// pass and fills only the per-layer metrics. Result mismatches are
// tallied in `report`; a non-OK status means the run could not be set up
// at all.
textjoin::Status RunWorkload(const WorkloadSpec& spec,
                             const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
