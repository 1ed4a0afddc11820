#ifndef TEXTJOIN_SERVE_SCHEDULER_H_
#define TEXTJOIN_SERVE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/dynamic_collection.h"
#include "exec/admission.h"
#include "exec/governor.h"
#include "exec/retry_admission.h"
#include "index/inverted_file.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "obs/query_stats.h"
#include "serve/result_cache.h"
#include "serve/shared_scan.h"
#include "storage/buffer_pool.h"
#include "text/collection.h"
#include "text/document.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace textjoin {

// QueryScheduler: the multi-tenant serving loop. Many ad-hoc top-lambda
// queries from many tenants arrive against shared collections; the
// scheduler admits them through the PR 4 AdmissionController, interleaves
// the admitted ones round-robin on a simulated clock, piggybacks
// same-round posting-list fetches on one shared scan, serves repeats from
// the ResultCache, and confines every tenant to its hard BufferPool page
// quota (shrinking quotas push queries down the PR 4 degraded-execution
// path: the similarity accumulator is partitioned into document ranges and
// the posting lists are re-fetched once per partition — more I/O, same
// bits).
//
// Execution model. One query = one tokenized text scored against one
// indexed collection, HVNL-style: for each query term, fetch the term's
// posting list and accumulate w_q * w_d * idf(t)^2 into a per-document
// accumulator; finalize (cosine) into a TopKAccumulator. The scheduler
// advances in ROUNDS: each round gives every active query one STEP (one
// posting-list fetch + accumulate), charging simulated time
//   step_cost = ms_per_step + pages_read * ms_per_page
// so a query behind a cold scan takes longer than one riding a warm pool
// or a shared scan. The AdmissionController's clock advances in lockstep,
// which is what makes queue timeouts, deadlines and tail latencies
// deterministic and testable.
//
// Serving under churn (DESIGN.md §12). Registered DynamicCollections also
// accept WRITES through the same loop: SubmitWrite enqueues inserts,
// deletes and compactions on the same simulated timeline, and Run()
// interleaves them with queries. The consistency contract is
// SNAPSHOT-AT-ADMISSION: when a query is admitted it pins an immutable
// snapshot of its collection (base generation + liveness + delta + epoch)
// and every one of its steps executes against that snapshot, no matter how
// many writes or compaction generation swaps land while it runs. A
// completed query is therefore bit-identical — scores AND tie-breaks — to
// a from-scratch rebuild of the collection at its admission epoch.
// Compactions run as background CompactionJobs (dynamic/compaction.h): one
// bounded slice per scheduler round, under a QueryGovernor memory budget,
// pausing while admission has queued queries, crash-safe at every slice
// boundary; queries keep executing against the old generation, which their
// snapshots pin alive across the swap.
//
// Determinism: rounds step queries in activation order; the accumulator
// visits documents ascending within each partition and partitions
// ascending, so a query's result is bit-identical regardless of how many
// queries it was interleaved with, whether its fetches were shared, and
// how many partitions its memory budget forced — the properties
// serving_test and serving_chaos_test lock in.
struct ServeOptions {
  // Admission front door (max_concurrent, queue, timeouts, memory budget).
  AdmissionOptions admission;
  // ResultCache capacity in entries; 0 disables caching.
  int64_t result_cache_entries = 64;
  // Piggyback same-round fetches of the same posting list.
  bool shared_scans = true;
  // Buffer pool capacity backing all tenants.
  int64_t buffer_pool_pages = 256;
  // Hard per-tenant page quotas (storage/buffer_pool.h). Empty = one
  // unpartitioned pool. Quotas also bound each tenant's query memory
  // budget, so small slices trigger degraded (multi-partition) execution.
  std::vector<BufferPool::TenantQuota> tenants;
  // Simulated cost model of one step.
  double ms_per_page = 0.1;
  double ms_per_step = 0.01;
  // Simulated cost of applying one insert/delete (WAL append + delta
  // update). Writes run on the same single-core timeline as queries, so
  // each one delays every in-flight query by this much.
  double ms_per_write = 0.05;
  // Background compaction: documents copied per slice, simulated cost of
  // one slice, and the job's memory budget in pages (0 = unbounded; a
  // small budget shrinks the per-slice copy count below
  // compact_docs_per_slice).
  int64_t compact_docs_per_slice = 64;
  double compact_ms_per_slice = 0.25;
  int64_t compact_memory_budget_pages = 0;
  // Overload handling: pause compaction slices while admission has queued
  // queries (they get the cycles instead), and abort the compaction
  // outright when a query is shed (sacrifice the rewrite to shed load).
  bool compact_pause_on_queue = true;
  bool compact_abort_on_shed = false;
  // Bounded retry-with-backoff for admission-shed queries
  // (exec/retry_admission.h). max_attempts = 0 sheds immediately,
  // preserving the pre-churn behavior.
  RetryAdmissionPolicy retry;
};

// One submitted serving query.
struct ServeQuery {
  std::string tenant;
  std::string collection;
  // Free text; tokenized and normalized against the shared Vocabulary.
  std::string text;
  // Pre-tokenized query vector (any order, repeats summed). When
  // non-empty, `text` is ignored — the path synthetic workloads use.
  std::vector<DCell> cells;
  int64_t lambda = 10;
  SimilarityConfig similarity;
  // Per-query deadline (0 = the admission default / none).
  double deadline_ms = 0;
  // Simulated arrival time. Queries may be submitted in any order; Run()
  // processes them by arrival.
  double arrival_ms = 0;
  // Test hook: trip the governor's cancellation at the n-th checkpoint.
  int64_t cancel_at_checkpoint = 0;
};

// What happened to one query, in arrival order.
struct QueryRecord {
  int64_t id = 0;
  std::string tenant;
  // "completed" | "shed" | "cancelled" | "deadline" | "failed".
  std::string outcome;
  bool cache_hit = false;
  double arrival_ms = 0;
  double start_ms = 0;   // first execution step (== arrival for cache hits)
  double finish_ms = 0;
  double queue_wait_ms = 0;
  double latency_ms = 0;  // finish - arrival; the number the bench plots
  // Top-lambda matches, best first (empty unless completed). Documents are
  // named by snapshot ids: base DocIds, then delta docs at base_n + j.
  std::vector<Match> matches;
  std::string error;  // status message when not completed
  GovernanceStats governance;
  ServingStats serving;
};

// One submitted mutation against a registered dynamic collection.
struct ServeWrite {
  enum class Kind { kInsert, kDelete, kCompact };
  Kind kind = Kind::kInsert;
  std::string collection;
  // Insert payload: free text, or a pre-tokenized vector (wins when
  // non-empty).
  std::string text;
  std::vector<DCell> cells;
  // Delete target.
  DocKey key = 0;
  // Compact synchronously at arrival (stalling every query for the whole
  // rewrite) instead of as a background job. The bench's stall comparison.
  bool foreground = false;
  double arrival_ms = 0;
};

// What happened to one write, in submission order.
struct WriteRecord {
  int64_t id = 0;
  std::string collection;
  // "insert" | "delete" | "compact".
  std::string kind;
  // "applied" | "failed" | "aborted".
  std::string outcome;
  // Key assigned (insert) or targeted (delete).
  DocKey key = 0;
  double arrival_ms = 0;
  double finish_ms = 0;
  // Collection epoch right after this write applied (0 unless applied).
  // The chaos harness replays the write stream through these to
  // reconstruct the collection state any snapshot_epoch refers to.
  int64_t epoch_after = 0;
  // Compaction slices executed (compact only).
  int64_t slices = 0;
  std::string error;
};

class QueryScheduler {
 public:
  // `disk` meters all page I/O; `vocabulary` is the shared term mapping
  // queries are normalized against. Both must outlive the scheduler.
  QueryScheduler(Disk* disk, Vocabulary* vocabulary, ServeOptions options);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Registers a collection and its inverted file for serving.
  Status AddCollection(const std::string& name,
                       const DocumentCollection* collection,
                       const InvertedFile* index);

  // Registers a dynamic collection: queries snapshot its live state at
  // admission, and SubmitWrite accepts mutations against it. `dc` must
  // outlive the scheduler (or be detached by reopening + ReattachDynamic).
  Status AddDynamicCollection(const std::string& name, DynamicCollection* dc);

  // Swaps in a reopened DynamicCollection after a write failure wounded
  // the served one (see SubmitWrite). Clears the wound, re-snapshots at
  // the reopened epoch and drops the collection's cached results.
  Status ReattachDynamic(const std::string& name, DynamicCollection* dc);

  // Bumps the collection's epoch (content changed): every cached result
  // depending on it is invalidated, and queries admitted afterwards see
  // the new content. For dynamic collections the epoch is re-read from the
  // collection itself.
  Status BumpEpoch(const std::string& name);
  // Current epoch of `name`, or -1 when unregistered.
  int64_t epoch(const std::string& name) const;
  // True when a failed write left the served in-memory state untrusted.
  // Queries keep serving the last good snapshot; writes fail fast.
  // Recover by reopening the collection and calling ReattachDynamic.
  bool wounded(const std::string& name) const;

  // Tokenizes and enqueues a query; returns its id. Fails on unknown
  // collection/tenant or untokenizable input — before any clock advances.
  Result<int64_t> Submit(const ServeQuery& query);

  // Validates and enqueues a write; returns its id. Like Submit, input
  // errors (unknown or non-dynamic collection, untokenizable insert,
  // missing delete key) surface here, before any clock advances.
  Result<int64_t> SubmitWrite(const ServeWrite& write);

  // Drains every submitted query AND write to completion (or
  // shed/cancelled/aborted) and returns one record per query in submission
  // order. Write records accumulate on the side (TakeWriteRecords). May be
  // called repeatedly: each call serves what was submitted since the last.
  Result<std::vector<QueryRecord>> Run();

  // Write outcomes of every Run() since the last call, in submission
  // order.
  std::vector<WriteRecord> TakeWriteRecords();

  double now_ms() const { return now_ms_; }
  BufferPool* pool() { return pool_.get(); }
  ResultCache* cache() { return &cache_; }
  AdmissionController* admission() { return &admission_; }
  const SharedScanRegistrar& registrar() const { return registrar_; }
  const ServeOptions& options() const { return options_; }

 private:
  struct Snapshot;     // immutable per-epoch view of one collection
  struct Served;       // per-collection serving state
  struct Task;         // one in-flight query
  struct PendingWrite; // one queued mutation
  struct Compaction;   // one in-flight background compaction

  // Rebuilds `served`'s snapshot from its dynamic collection's live state.
  void RefreshSnapshot(Served* served);
  // Invalidation that every applied write performs: cached results of the
  // collection die, and scans registered earlier in this round stop being
  // shareable.
  void InvalidateOnWrite(const std::string& name);
  // Applies one insert/delete, runs a foreground compaction, or starts a
  // background one (appended to `compacting`).
  void ApplyWriteOp(PendingWrite* write,
                    std::vector<Compaction>* compacting);
  // Runs one slice; returns true when the job finished (either way).
  bool StepCompactionSlice(Compaction* c);

  Status ActivateTask(Task* task, double queue_wait_ms);
  // Runs one step of `task`; returns the simulated cost in ms.
  Result<double> StepTask(Task* task);
  void FlushPartition(Task* task);
  void FinishTask(Task* task, std::string outcome, const Status& status);
  void RecordShed(Task* task, double queue_wait_ms, const Status& status);
  void Advance(double ms);

  Disk* disk_;
  Vocabulary* vocabulary_;
  ServeOptions options_;
  Tokenizer tokenizer_;
  std::unique_ptr<BufferPool> pool_;
  AdmissionController admission_;
  ResultCache cache_;
  SharedScanRegistrar registrar_;
  RetryAdmission retry_;
  std::map<std::string, std::unique_ptr<Served>> collections_;
  std::vector<std::unique_ptr<Task>> tasks_;          // submitted queries
  std::vector<std::unique_ptr<PendingWrite>> writes_; // submitted writes
  std::vector<WriteRecord> write_records_;
  double now_ms_ = 0;
  int64_t next_id_ = 1;
  int64_t next_write_id_ = 1;
  bool any_shed_ = false;  // set by RecordShed; compact_abort_on_shed hook
};

}  // namespace textjoin

#endif  // TEXTJOIN_SERVE_SCHEDULER_H_
