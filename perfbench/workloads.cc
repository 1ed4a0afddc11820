#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/random.h"
#include "cost/cost_model.h"
#include "dynamic/dynamic_collection.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "parallel/parallel_join.h"
#include "planner/planner.h"
#include "reference.h"
#include "serve/scheduler.h"
#include "sim/synthetic.h"
#include "storage/disk_manager.h"

namespace perfbench {

using textjoin::Algorithm;
using textjoin::DCell;
using textjoin::DocId;
using textjoin::DocKey;
using textjoin::Document;
using textjoin::DocumentCollection;
using textjoin::DynamicCollection;
using textjoin::InvertedFile;
using textjoin::IoStats;
using textjoin::JoinContext;
using textjoin::JoinResult;
using textjoin::JoinSpec;
using textjoin::Match;
using textjoin::PhaseStats;
using textjoin::PlanChoice;
using textjoin::QueryStats;
using textjoin::Result;
using textjoin::SimilarityContext;
using textjoin::SimulatedDisk;
using textjoin::Status;

// Settings every workload shares.
constexpr double kZipfS = 1.0;  // term-frequency skew of the collections
constexpr double kAlpha = 5.0;  // a random page read costs kAlpha sequential
// The serving client: this share of ops are writes (2/3 inserts, 1/3
// deletes), the rest top-kQueryLambda queries with raw-count scoring, so
// the brute-force check is exact integer arithmetic.
constexpr double kWriteFraction = 0.35;
constexpr int64_t kQueryLambda = 10;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* kWorkloads = [] {
    auto* w = new std::vector<WorkloadSpec>();

    // wsj_dense: WSJ-shaped documents (WSJ's 329 terms/4), a full join.
    // Nearly every pair shares terms and both collections fit the buffer,
    // so the time goes to merges, accumulators, pruning bounds and top-
    // lambda selection; storage and decode do little.
    WorkloadSpec wsj;
    wsj.name = "wsj_dense";
    wsj.num_documents = 600;
    wsj.terms_per_doc = 82;
    wsj.vocabulary = 20000;
    wsj.buffer_pages = 2000;
    wsj.similarity.use_idf = true;
    wsj.serve_ops = 9000;
    w->push_back(wsj);

    // fr_select: FR-shaped documents (FR's 1017 terms/4) and a 2% evenly
    // spaced outer selection (the paper's Group 3). Few outer documents
    // against long entries: HVNL makes thousands of random entry reads
    // through its B+tree and entry cache, decode works on group-varint,
    // and planning is a visible share of the time.
    WorkloadSpec fr;
    fr.name = "fr_select";
    fr.num_documents = 2000;
    fr.terms_per_doc = 254;
    fr.vocabulary = 40000;
    fr.outer_fraction = 0.02;
    fr.buffer_pages = 400;
    fr.similarity.use_idf = true;
    fr.similarity.cosine_normalize = true;
    fr.compression = textjoin::PostingCompression::kGroupVarint;
    fr.serve_ops = 4000;
    w->push_back(fr);

    // doe_churn: DOE-shaped short documents (DOE's 89 terms/4) in the
    // largest collection, where serving under churn dominates: the WAL,
    // epoch snapshots, cache invalidation and the compaction rewrite plus
    // index build. Work moved from joins into builds or per-epoch
    // precomputation shows here.
    WorkloadSpec doe;
    doe.name = "doe_churn";
    doe.num_documents = 4000;
    doe.terms_per_doc = 22;
    doe.vocabulary = 20000;
    doe.outer_fraction = 0.02;
    doe.buffer_pages = 2000;
    doe.similarity.use_idf = true;
    doe.serve_ops = 6000;
    w->push_back(doe);
    return w;
  }();
  return *kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec SmokeSized(const WorkloadSpec& spec) {
  WorkloadSpec s = spec;
  s.num_documents = std::min<int64_t>(spec.num_documents, 250);
  s.outer_fraction = std::max(spec.outer_fraction, 0.1);
  s.compact_every = 20;
  s.query_pool = 20;
  s.min_join_trials = 1;
  s.serve_ops = 150;
  s.min_queries = 40;
  s.min_writes = 40;
  s.setup_reps = 1;
  return s;
}

namespace {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

template <typename T>
std::unique_ptr<T> Own(T&& value) {
  return std::make_unique<T>(std::move(value));
}

Result<std::vector<Document>> ReadAll(const DocumentCollection& c) {
  std::vector<Document> docs;
  docs.reserve(static_cast<size_t>(c.num_documents()));
  auto scan = c.Scan();
  while (!scan.Done()) {
    TEXTJOIN_ASSIGN_OR_RETURN(Document d, scan.Next());
    docs.push_back(std::move(d));
  }
  return docs;
}

// A document drawn the way GenerateCollection draws one: Zipf ranks until
// `k` are distinct, each weighted by how often it was drawn.
Document SampleDocument(textjoin::Rng* rng, const textjoin::ZipfSampler& zipf,
                        int64_t k) {
  std::map<uint64_t, uint16_t> drawn;
  while (static_cast<int64_t>(drawn.size()) < k) {
    uint16_t& w = drawn[zipf.Sample(rng)];
    if (w < 0xFFFF) ++w;
  }
  std::vector<DCell> cells;
  for (const auto& [rank, w] : drawn) {
    cells.push_back(DCell{static_cast<textjoin::TermId>(rank), w});
  }
  return Document::FromSortedCells(std::move(cells));
}

// ---- Set-up ------------------------------------------------------------

// Everything one set-up builds; setup_s times exactly these steps.
struct Session {
  std::unique_ptr<SimulatedDisk> disk;
  std::unique_ptr<DocumentCollection> inner;  // C1
  std::unique_ptr<DocumentCollection> outer;  // C2
  std::unique_ptr<InvertedFile> inner_index;
  std::unique_ptr<InvertedFile> outer_index;
  std::unique_ptr<SimilarityContext> sim;
  std::unique_ptr<SimulatedDisk> serve_disk;
  std::unique_ptr<DynamicCollection> dyn;

  // The benchmark's own copies, read back outside the timed steps.
  std::vector<Document> inner_docs;
  std::vector<Document> outer_docs;

  JoinContext ctx;
  JoinSpec spec;
};

struct SetupTimes {
  double total = 0;
  double generate = 0;
  double build = 0;
  double similarity = 0;
  double dynamic = 0;
};

// The synthetic-collection settings of `w`, drawn from `seed`.
textjoin::SyntheticSpec CollectionSpec(const WorkloadSpec& w, uint64_t seed) {
  textjoin::SyntheticSpec spec;
  spec.num_documents = w.num_documents;
  spec.avg_terms_per_doc = w.terms_per_doc;
  spec.vocabulary_size = w.vocabulary;
  spec.zipf_s = kZipfS;
  spec.seed = seed;
  return spec;
}

// The outer documents the join takes part with: an evenly spaced
// outer_fraction of C2, or all of it.
std::vector<DocId> OuterSelection(const WorkloadSpec& w) {
  const int64_t n = w.num_documents;
  const int64_t m =
      w.outer_fraction < 1.0
          ? std::max<int64_t>(1, static_cast<int64_t>(
                                     static_cast<double>(n) * w.outer_fraction +
                                     0.5))
          : n;
  std::vector<DocId> ids;
  for (int64_t i = 0; i < m; ++i) ids.push_back(static_cast<DocId>(i * n / m));
  return ids;
}

Result<std::unique_ptr<Session>> SetUp(const WorkloadSpec& w, uint64_t seed,
                                       Tracer* tracer, SetupTimes* times) {
  auto s = std::make_unique<Session>();
  ScopedSpan setup_span(tracer, "setup");
  Status st;
  s->disk = std::make_unique<SimulatedDisk>(4096);
  times->generate = Timed(tracer, "sim.generate", [&] {
    auto inner = textjoin::GenerateCollection(s->disk.get(), "c1",
                                              CollectionSpec(w, Mix(seed, 1)));
    auto outer = textjoin::GenerateCollection(s->disk.get(), "c2",
                                              CollectionSpec(w, Mix(seed, 2)));
    if (!inner.ok()) st = inner.status();
    if (!outer.ok()) st = outer.status();
    if (st.ok()) {
      s->inner = Own(std::move(inner).value());
      s->outer = Own(std::move(outer).value());
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);

  times->build = Timed(tracer, "index.build", [&] {
    InvertedFile::BuildOptions options;
    options.compression = w.compression;
    auto i1 = InvertedFile::Build(s->disk.get(), "c1.inv", *s->inner, options);
    auto i2 = InvertedFile::Build(s->disk.get(), "c2.inv", *s->outer, options);
    if (!i1.ok()) st = i1.status();
    if (!i2.ok()) st = i2.status();
    if (st.ok()) {
      s->inner_index = Own(std::move(i1).value());
      s->outer_index = Own(std::move(i2).value());
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);

  times->similarity = Timed(tracer, "similarity.create", [&] {
    auto sim = SimilarityContext::Create(*s->inner, *s->outer, w.similarity);
    if (sim.ok()) {
      s->sim = Own(std::move(sim).value());
    } else {
      st = sim.status();
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);

  // Untimed: the benchmark's own copies of the documents.
  TEXTJOIN_ASSIGN_OR_RETURN(s->inner_docs, ReadAll(*s->inner));
  TEXTJOIN_ASSIGN_OR_RETURN(s->outer_docs, ReadAll(*s->outer));

  s->serve_disk = std::make_unique<SimulatedDisk>(4096);
  times->dynamic = Timed(tracer, "dynamic.create", [&] {
    auto dyn =
        DynamicCollection::Create(s->serve_disk.get(), "docs", s->inner_docs);
    if (dyn.ok()) {
      s->dyn = std::move(dyn).value();
    } else {
      st = dyn.status();
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);
  times->total = times->generate + times->build + times->similarity +
                 times->dynamic;

  s->ctx.inner = s->inner.get();
  s->ctx.outer = s->outer.get();
  s->ctx.inner_index = s->inner_index.get();
  s->ctx.outer_index = s->outer_index.get();
  s->ctx.similarity = s->sim.get();
  s->ctx.sys.buffer_pages = w.buffer_pages;
  s->ctx.sys.page_size = 4096;
  s->ctx.sys.alpha = kAlpha;
  s->spec.lambda = kJoinLambda;
  s->spec.similarity = w.similarity;
  if (w.outer_fraction < 1.0) s->spec.outer_subset = OuterSelection(w);
  s->disk->ResetStats();
  return s;
}

// ---- Reference -----------------------------------------------------------

// The unit of the end-to-end times: the floor join (reference.h) over two
// collections of the workload's shape drawn from kReferenceSeed, whatever
// --seed is. Its work is the same on every run, so its wall time moves
// with the host's speed alone.
constexpr uint64_t kReferenceSeed = 0x5eed;

class Reference {
 public:
  static Result<std::unique_ptr<Reference>> Make(const WorkloadSpec& w) {
    auto disk = std::make_unique<SimulatedDisk>(4096);
    auto inner = textjoin::GenerateCollection(
        disk.get(), "r1", CollectionSpec(w, Mix(kReferenceSeed, 1)));
    if (!inner.ok()) return inner.status();
    auto outer = textjoin::GenerateCollection(
        disk.get(), "r2", CollectionSpec(w, Mix(kReferenceSeed, 2)));
    if (!outer.ok()) return outer.status();
    TEXTJOIN_ASSIGN_OR_RETURN(std::vector<Document> inner_docs,
                              ReadAll(*inner));
    auto r = std::unique_ptr<Reference>(new Reference(inner_docs));
    r->disk_ = std::move(disk);
    r->inner_ = Own(std::move(inner).value());
    r->outer_ = Own(std::move(outer).value());
    // The similarity context reads the collections, so they live as long.
    auto sim = SimilarityContext::Create(*r->inner_, *r->outer_, w.similarity);
    if (!sim.ok()) return sim.status();
    r->sim_ = Own(std::move(sim).value());
    TEXTJOIN_ASSIGN_OR_RETURN(r->outer_docs_, ReadAll(*r->outer_));
    r->outer_ids_ = OuterSelection(w);
    r->result_ = r->Run();
    return r;
  }

  // Runs the reference join once, checked against its first run; returns
  // its wall time.
  double Time(Report* report) const {
    const Clock::time_point t0 = Clock::now();
    const JoinResult again = Run();
    const double wall = SecondsSince(t0);
    report->Check("reference repeat", DiffJoin(result_, again));
    return wall;
  }

 private:
  explicit Reference(const std::vector<Document>& inner_docs)
      : join_(inner_docs) {}
  JoinResult Run() const {
    return join_.Run(outer_docs_, outer_ids_, *sim_, kJoinLambda, nullptr);
  }

  FloorJoin join_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<DocumentCollection> inner_;
  std::unique_ptr<DocumentCollection> outer_;
  std::unique_ptr<SimilarityContext> sim_;
  std::vector<Document> outer_docs_;
  std::vector<DocId> outer_ids_;
  JoinResult result_;
};

// ---- Join stage ----------------------------------------------------------

// The four ways a user runs the join: the planner's choice (--algo auto)
// and each executor forced.
enum Runner { kAuto = 0, kHhnl, kHvnl, kVvm, kNumRunners };
const char* const kRunnerNames[kNumRunners] = {"join", "hhnl", "hvnl", "vvm"};

Result<JoinResult> RunJoin(Runner r, const JoinContext& ctx,
                           const JoinSpec& spec) {
  switch (r) {
    case kAuto:
      return textjoin::JoinPlanner().Execute(ctx, spec);
    case kHhnl:
      return textjoin::HhnlJoin().Run(ctx, spec);
    case kHvnl:
      return textjoin::HvnlJoin().Run(ctx, spec);
    default:
      return textjoin::VvmJoin().Run(ctx, spec);
  }
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

struct JoinStage {
  std::vector<Sample> runs[kNumRunners];
  IoStats io[kNumRunners];
  int64_t trials = 0;  // complete rounds of all four
  int next = 0;        // position within the current round
  int rep = 0;         // executions of the current runner so far
  // Executions per round: fast executors repeat so every runner gets
  // about the same measured time and its median as many samples.
  int reps[kNumRunners] = {1, 1, 1, 1};
};

// One metered, checked execution; returns its wall time.
double TimedJoin(Runner r, Session* s, const JoinContext& ctx,
                 const JoinResult& floor, Tracer* tracer, Report* report,
                 IoStats* io) {
  s->disk->ResetStats();
  s->disk->ResetHeads();
  ScopedSpan span(tracer, std::string("join.") + kRunnerNames[r]);
  const Clock::time_point t0 = Clock::now();
  Result<JoinResult> result = RunJoin(r, ctx, s->spec);
  const double wall = SecondsSince(t0);
  *io = s->disk->stats();
  report->Check(kRunnerNames[r], result.ok() ? DiffJoin(floor, *result)
                                             : result.status().ToString());
  return wall;
}

// Warm-up pass: fills the allocator and lazy catalogs, and records the
// page counts every later execution must reproduce; checked, untimed.
void JoinWarmUp(Session* s, const JoinResult& floor, Report* report,
                JoinStage* out) {
  Tracer off(false);
  double warm[kNumRunners];
  for (int r = 0; r < kNumRunners; ++r) {
    warm[r] = TimedJoin(static_cast<Runner>(r), s, s->ctx, floor, &off,
                        report, &out->io[r]);
  }
  const double slowest = *std::max_element(warm, warm + kNumRunners);
  for (int r = 0; r < kNumRunners; ++r) {
    out->reps[r] = static_cast<int>(
        std::clamp(slowest / std::max(warm[r], 1e-6) + 0.5, 1.0, 16.0));
  }
}

// Runs one execution of the current round's current executor, which has
// reps of them before the next executor's turn. The order rotates from
// round to round so no executor always follows the same neighbour.
void JoinStep(Session* s, const JoinResult& floor, int64_t interval,
              Report* report, JoinStage* out) {
  Tracer off(false);
  const Runner r =
      static_cast<Runner>((out->next + out->trials) % kNumRunners);
  IoStats io;
  out->runs[r].push_back(
      {TimedJoin(r, s, s->ctx, floor, &off, report, &io), interval});
  // Page counts are exact: every execution must reproduce the warm-up's.
  report->Check(std::string(kRunnerNames[r]) + " page reads",
                io == out->io[r] ? "" : io.ToString() + ", first " +
                                            out->io[r].ToString());
  if (++out->rep < out->reps[r]) return;
  out->rep = 0;
  if (++out->next == kNumRunners) {
    out->next = 0;
    ++out->trials;
  }
}

// ---- Serve stage ----------------------------------------------------------

// Every op is exactly one query, write or compaction; checks excluded.
struct ServeStage {
  std::vector<Sample> query;
  std::vector<Sample> write;
  std::vector<Sample> compact;
  std::vector<double> sim_latency_ms;
  std::vector<double> compact_slices;
  std::vector<double> compact_pages;
  int64_t ops = 0;
  int64_t cache_hits = 0;
  int64_t shed = 0;
  int64_t wal_bytes = 0;
  int64_t user_bytes = 0;
};

// The benchmark's model of the live collection: documents by key, plus
// the key <-> scheduler-id translation for the current generation.
class LiveModel {
 public:
  void Put(DocKey key, Document doc) {
    docs_[key] = std::move(doc);
    stale_ = id_stale_ = true;
  }
  void Erase(DocKey key) {
    docs_.erase(key);
    stale_ = id_stale_ = true;
  }

  std::vector<DocKey> Keys() const {
    std::vector<DocKey> keys;
    for (const auto& [k, d] : docs_) keys.push_back(k);
    return keys;
  }

  // Live documents in key order, for the brute-force reference.
  const std::vector<const Document*>& Ordered() {
    Refresh();
    return ordered_;
  }

  // Translates scheduler matches (merged ids of `dc`'s current state) to
  // positions in key order; false when an id names no live document.
  bool Translate(const DynamicCollection& dc, std::vector<Match>* matches) {
    Refresh();
    if (id_stale_) {
      id_to_key_.assign(static_cast<size_t>(dc.base().num_documents()), 0);
      const std::vector<char>& alive = dc.base_alive();
      for (size_t d = 0; d < alive.size(); ++d) {
        if (alive[d]) id_to_key_[d] = dc.KeyOfMerged(static_cast<DocId>(d));
      }
      for (const DynamicCollection::DeltaDoc* e : dc.AliveDelta()) {
        id_to_key_.push_back(e->key);
      }
      id_stale_ = false;
    }
    for (Match& m : *matches) {
      if (m.doc >= id_to_key_.size() || id_to_key_[m.doc] == 0) return false;
      auto it = position_.find(id_to_key_[m.doc]);
      if (it == position_.end()) return false;
      m.doc = it->second;
    }
    return true;
  }

  // A compaction renumbered the collection's documents.
  void InvalidateIds() { id_stale_ = true; }

 private:
  void Refresh() {
    if (!stale_) return;
    ordered_.clear();
    position_.clear();
    for (const auto& [k, d] : docs_) {
      position_[k] = static_cast<DocId>(ordered_.size());
      ordered_.push_back(&d);
    }
    stale_ = false;
  }

  std::map<DocKey, Document> docs_;
  bool stale_ = true;
  std::vector<const Document*> ordered_;
  std::unordered_map<DocKey, DocId> position_;
  std::vector<DocKey> id_to_key_;
  bool id_stale_ = true;
};

// The closed-loop serving client: one op per QueryScheduler::Run(), each
// submitted at the scheduler's now_ms() and checked against the model
// after it completes (outside its timing).
class ServeClient {
 public:
  ServeClient(const WorkloadSpec& w, Session* s, uint64_t seed)
      : w_(w),
        s_(s),
        scheduler_(s->serve_disk.get(), nullptr, textjoin::ServeOptions{}),
        rng_(Mix(seed, 3)),
        terms_(static_cast<uint64_t>(w.vocabulary), kZipfS),
        popularity_(static_cast<uint64_t>(w.query_pool), 1.0),
        doc_terms_(std::max<int64_t>(
            1, static_cast<int64_t>(w.terms_per_doc + 0.5))) {
    for (int64_t i = 0; i < w.query_pool; ++i) {
      pool_.push_back(SampleDocument(&rng_, terms_, rng_.NextInRange(3, 8)));
    }
    for (size_t i = 0; i < s->inner_docs.size(); ++i) {
      model_.Put(static_cast<DocKey>(i + 1), s->inner_docs[i]);
      live_keys_.push_back(static_cast<DocKey>(i + 1));
    }
    next_key_ = static_cast<DocKey>(s->inner_docs.size()) + 1;
  }

  Status Register() {
    return scheduler_.AddDynamicCollection("docs", s_->dyn.get());
  }

  // The workload's ops are done, with enough samples for every percentile
  // it promises and no compaction left owed.
  bool Satisfied() const {
    return stats_.ops >= w_.serve_ops &&
           static_cast<int64_t>(stats_.query.size()) >= w_.min_queries &&
           static_cast<int64_t>(stats_.write.size()) >= w_.min_writes &&
           !compact_due_;
  }

  // Runs the next op; its sample is filed under `interval`.
  void Step(int64_t interval, Tracer* tracer, Report* report) {
    interval_ = interval;
    const int64_t op = stats_.ops++;
    ScopedSpan op_span(tracer, "serve.op", op);
    if (compact_due_) {
      compact_due_ = false;
      Compact(op, tracer, report);
    } else if (rng_.NextDouble() < kWriteFraction) {
      Write(op, tracer, report);
      if (++writes_ % w_.compact_every == 0) compact_due_ = true;
    } else {
      Query(op, tracer, report);
    }
  }

  const ServeStage& stats() const { return stats_; }

 private:
  // Submits `write` and runs it to completion; returns the error, if any.
  std::string RunWrite(const textjoin::ServeWrite& write, const char* span,
                       int64_t op, Tracer* tracer, double* wall,
                       textjoin::WriteRecord* record) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    auto id = scheduler_.SubmitWrite(write);
    auto run = scheduler_.Run();
    std::vector<textjoin::WriteRecord> records = scheduler_.TakeWriteRecords();
    const Clock::time_point t1 = Clock::now();
    tracer->Add(span, t0, t1, op);
    if (!id.ok()) error = id.status().ToString();
    if (!run.ok()) error = run.status().ToString();
    *wall = std::chrono::duration<double>(t1 - t0).count();
    if (error.empty() && records.size() != 1) {
      error = "got " + std::to_string(records.size()) + " write records";
    }
    if (error.empty()) {
      *record = records[0];
      if (record->outcome != "applied") {
        error = record->kind + " " + record->outcome + " " + record->error;
      }
    }
    return error;
  }

  void Compact(int64_t op, Tracer* tracer, Report* report) {
    textjoin::ServeWrite write;
    write.kind = textjoin::ServeWrite::Kind::kCompact;
    write.collection = "docs";
    write.arrival_ms = scheduler_.now_ms();
    const int64_t pages_before = s_->serve_disk->stats().page_writes;
    double wall = 0;
    textjoin::WriteRecord record;
    std::string error =
        RunWrite(write, "serve.compact", op, tracer, &wall, &record);
    stats_.compact.push_back({wall, interval_});
    stats_.compact_pages.push_back(static_cast<double>(
        s_->serve_disk->stats().page_writes - pages_before));
    stats_.compact_slices.push_back(static_cast<double>(record.slices));
    if (error.empty() && s_->dyn->LiveKeys() != model_.Keys()) {
      error = "live keys after compaction differ from the model";
    }
    model_.InvalidateIds();
    report->Check("compact", error);
  }

  void Write(int64_t op, Tracer* tracer, Report* report) {
    textjoin::ServeWrite write;
    write.collection = "docs";
    write.arrival_ms = scheduler_.now_ms();
    Document inserted;
    int64_t user_bytes = 0;
    if (live_keys_.size() > 1 && rng_.NextBounded(3) == 0) {
      write.kind = textjoin::ServeWrite::Kind::kDelete;
      const uint64_t pick = rng_.NextBounded(live_keys_.size());
      write.key = live_keys_[pick];
      live_keys_[pick] = live_keys_.back();
      live_keys_.pop_back();
      user_bytes = static_cast<int64_t>(sizeof(DocKey));
    } else {
      write.kind = textjoin::ServeWrite::Kind::kInsert;
      inserted = SampleDocument(&rng_, terms_, doc_terms_);
      write.cells = inserted.cells();
      user_bytes = inserted.SizeBytes();
    }
    const int64_t wal_before = s_->dyn->wal_bytes();
    double wall = 0;
    textjoin::WriteRecord record;
    std::string error =
        RunWrite(write, "serve.write", op, tracer, &wall, &record);
    stats_.write.push_back({wall, interval_});
    stats_.wal_bytes += s_->dyn->wal_bytes() - wal_before;
    stats_.user_bytes += user_bytes;
    if (write.kind == textjoin::ServeWrite::Kind::kInsert) {
      if (error.empty() && record.key != next_key_) {
        error = "insert got key " + std::to_string(record.key) + ", want " +
                std::to_string(next_key_);
      }
      model_.Put(next_key_, std::move(inserted));
      live_keys_.push_back(next_key_++);
    } else {
      model_.Erase(write.key);
    }
    report->Check("write", error);
  }

  void Query(int64_t op, Tracer* tracer, Report* report) {
    const size_t which = popularity_.Sample(&rng_);
    textjoin::ServeQuery query;
    query.collection = "docs";
    query.cells = pool_[which].cells();
    query.lambda = kQueryLambda;
    query.arrival_ms = scheduler_.now_ms();
    Result<std::vector<textjoin::QueryRecord>> run =
        Status::Internal("not run");
    const Clock::time_point t0 = Clock::now();
    auto id = scheduler_.Submit(query);
    run = scheduler_.Run();
    const Clock::time_point t1 = Clock::now();
    tracer->Add("serve.query", t0, t1, op);
    if (!id.ok()) run = id.status();
    stats_.query.push_back(
        {std::chrono::duration<double>(t1 - t0).count(), interval_});
    std::string error;
    if (!run.ok()) {
      error = run.status().ToString();
    } else if (run->size() != 1) {
      error = "got " + std::to_string(run->size()) + " query records";
    } else {
      const textjoin::QueryRecord& r = run->front();
      stats_.sim_latency_ms.push_back(r.latency_ms);
      if (r.cache_hit) ++stats_.cache_hits;
      if (r.outcome == "shed") ++stats_.shed;
      if (r.outcome != "completed") {
        error = "query " + r.outcome + " " + r.error;
      } else {
        ScopedSpan check(tracer, "check.brute_force", op);
        std::vector<Match> got = r.matches;
        if (!model_.Translate(*s_->dyn, &got)) {
          error = "result names a document that is not live";
        } else {
          error = DiffMatches(BruteForceTopLambda(model_.Ordered(),
                                                  pool_[which],
                                                  kQueryLambda),
                              got);
        }
      }
    }
    report->Check("query", error);
  }

  const WorkloadSpec& w_;
  Session* s_;
  textjoin::QueryScheduler scheduler_;
  textjoin::Rng rng_;
  textjoin::ZipfSampler terms_;
  textjoin::ZipfSampler popularity_;
  const int64_t doc_terms_;
  std::vector<Document> pool_;
  LiveModel model_;
  std::vector<DocKey> live_keys_;
  DocKey next_key_ = 1;
  int64_t writes_ = 0;
  bool compact_due_ = false;
  int64_t interval_ = 0;
  ServeStage stats_;
};

// ---- Traced pass ----------------------------------------------------------

const PhaseStats* FindPhase(const PhaseStats& node, const std::string& label) {
  if (node.label == label) return &node;
  for (const PhaseStats& c : node.children) {
    if (const PhaseStats* p = FindPhase(c, label)) return p;
  }
  return nullptr;
}

int64_t CounterSum(const PhaseStats& node, const std::string& name) {
  int64_t total = node.Counter(name, 0);
  for (const PhaseStats& c : node.children) total += CounterSum(c, name);
  return total;
}

std::string PhaseJson(const PhaseStats& p) {
  std::string s = "{\"label\": " + JsonString(p.label) +
                  ", \"wall_s\": " + JsonNumber(p.wall_seconds) +
                  ", \"seq_reads\": " + std::to_string(p.io.sequential_reads) +
                  ", \"rand_reads\": " + std::to_string(p.io.random_reads) +
                  ", \"cpu\": " + JsonString(p.cpu.ToString()) +
                  ", \"counters\": {";
  for (size_t i = 0; i < p.counters.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(p.counters[i].name) + ": " +
         std::to_string(p.counters[i].value);
  }
  s += "}, \"children\": [";
  for (size_t i = 0; i < p.children.size(); ++i) {
    if (i > 0) s += ", ";
    s += PhaseJson(p.children[i]);
  }
  return s + "]}";
}

// The phases each forced executor reports.
const std::vector<std::string>& PhaseLabels(Runner r) {
  namespace phase = textjoin::phase;
  static const std::vector<std::string> kHhnlPhases = {phase::kReadOuter,
                                                       phase::kScanInner};
  static const std::vector<std::string> kHvnlPhases = {
      phase::kLoadBtree, phase::kReadOuter, phase::kProbeEntries};
  static const std::vector<std::string> kVvmPhases = {phase::kMergeScan};
  return r == kHhnl ? kHhnlPhases : r == kHvnl ? kHvnlPhases : kVvmPhases;
}

std::string MetricLabel(std::string label) {
  std::replace(label.begin(), label.end(), ' ', '_');
  return label;
}

struct TracedJoin {
  QueryStats stats[kNumRunners];
  double wall = 0;  // all four executions
};

void RunTracedJoin(Session* s, const JoinResult& floor, Tracer* tracer,
                   Report* report, TracedJoin* out) {
  ScopedSpan span(tracer, "join.traced");
  for (int r = 0; r < kNumRunners; ++r) {
    // The collector snapshots the disk counters when constructed, so
    // reset them first (TimedJoin's reset is then a no-op).
    s->disk->ResetStats();
    textjoin::QueryStatsCollector collector(s->disk.get());
    JoinContext ctx = s->ctx;
    ctx.stats = &collector;
    IoStats io;
    out->wall += TimedJoin(static_cast<Runner>(r), s, ctx, floor, tracer,
                           report, &io);
    out->stats[r] = collector.Finish();
  }
}

void ReportTracedJoin(const TracedJoin& traced, Report* report) {
  for (int r = kHhnl; r < kNumRunners; ++r) {
    const std::string a = kRunnerNames[r];
    const PhaseStats& root = traced.stats[r].root;
    double covered = 0;
    for (const PhaseStats& c : root.children) covered += c.wall_seconds;
    report->Set(a + ".coverage",
                root.wall_seconds > 0 ? covered / root.wall_seconds : 0,
                "ratio", "top-level phase wall over root wall");
    for (const std::string& label : PhaseLabels(static_cast<Runner>(r))) {
      const PhaseStats* p = FindPhase(root, label);
      report->Set(a + ".phase." + MetricLabel(label) + "_s",
                  p ? p->wall_seconds : 0, "s",
                  p ? "QueryStats phase" : "phase not reported");
    }
    const textjoin::CpuStats& cpu = root.cpu;
    report->Set(a + ".cell_compares", cpu.cell_compares, "count");
    report->Set(a + ".accumulations", cpu.accumulations, "count");
    report->Set(a + ".heap_offers", cpu.heap_offers, "count");
    report->Set(a + ".cells_decoded", cpu.cells_decoded, "count");
    report->Set(a + ".bound_checks", cpu.bound_checks, "count");
    const double avoided = static_cast<double>(
        cpu.pairs_pruned + cpu.candidates_suppressed + cpu.early_exits);
    report->Set(a + ".prune_yield",
                cpu.bound_checks > 0
                    ? avoided / static_cast<double>(cpu.bound_checks)
                    : 0,
                "ratio", "pruned+suppressed+early exits over bound checks");
  }
  const PhaseStats& hvnl = traced.stats[kHvnl].root;
  const double hits = static_cast<double>(CounterSum(hvnl, "cache_hits"));
  const double fetches =
      static_cast<double>(CounterSum(hvnl, "entry_fetches"));
  report->Set("hvnl.cache_hit_rate",
              hits + fetches > 0 ? hits / (hits + fetches) : 0, "ratio");
  report->Set("hvnl.evictions", CounterSum(hvnl, "evictions"), "count");
  report->Set("hvnl.directory_probes", CounterSum(hvnl, "directory_probes"),
              "count");
  report->Set("hhnl.outer_batches",
              CounterSum(traced.stats[kHhnl].root, "outer_batches"), "count");
  report->Set("vvm.passes", CounterSum(traced.stats[kVvm].root, "passes"),
              "count");
}

// Walks both collections and every posting list through the public
// scanners, timing the document scan and the posting decode apart.
Status MeasureScanAndDecode(const WorkloadSpec& w, Session* s, Tracer* tracer,
                            Report* report) {
  Status st;
  const double scan_s = Timed(tracer, "text.scan", [&] {
    for (const DocumentCollection* c : {s->inner.get(), s->outer.get()}) {
      auto scan = c->Scan();
      while (!scan.Done() && st.ok()) st = scan.Next().status();
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);
  report->Set("text.scan_s", scan_s, "s", "both collections");

  std::vector<std::vector<uint8_t>> raw;
  std::vector<const InvertedFile::EntryMeta*> metas;
  for (const InvertedFile* f : {s->inner_index.get(), s->outer_index.get()}) {
    auto scan = f->Scan();
    while (!scan.Done()) {
      metas.push_back(&scan.NextMeta());
      TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, scan.NextRaw());
      raw.push_back(std::move(bytes));
    }
  }
  int64_t cells = 0;
  int64_t bytes = 0;
  const double decode_s = Timed(tracer, "index.decode", [&] {
    for (size_t i = 0; i < raw.size() && st.ok(); ++i) {
      auto decoded = textjoin::DecodePostings(
          raw[i].data(), static_cast<int64_t>(raw[i].size()),
          metas[i]->cell_count, w.compression);
      st = decoded.status();
      if (st.ok()) cells += static_cast<int64_t>(decoded->size());
      bytes += static_cast<int64_t>(raw[i].size());
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);
  report->Set("index.decode_s", decode_s, "s", "every posting list");
  report->Set("index.cells_per_s",
              decode_s > 0 ? static_cast<double>(cells) / decode_s : 0,
              "1/s");
  report->Set("index.bytes_per_cell",
              cells > 0 ? static_cast<double>(bytes) / cells : 0, "B");

  // Metered page reads of every file the join touches, as whole runs.
  std::vector<uint8_t> buffer;
  const double read_s = Timed(tracer, "storage.read", [&] {
    for (textjoin::FileId f :
         {s->inner->file(), s->outer->file(), s->inner_index->file(),
          s->outer_index->file()}) {
      auto pages = s->disk->FileSizeInPages(f);
      if (!pages.ok()) {
        st = pages.status();
        return;
      }
      buffer.resize(static_cast<size_t>(*pages * s->disk->page_size()));
      st = s->disk->ReadRun(f, 0, *pages, buffer.data());
      if (!st.ok()) return;
    }
  });
  TEXTJOIN_RETURN_IF_ERROR(st);
  report->Set("storage.read_s", read_s, "s", "ReadRun over the join's files");
  return Status::OK();
}

// WeightedDot over a fixed sample of (inner, outer) pairs.
double MeasureDotNs(Session* s, Tracer* tracer) {
  ScopedSpan span(tracer, "similarity.dot");
  const size_t n1 = s->inner_docs.size();
  const size_t n2 = s->outer_docs.size();
  constexpr size_t kPairs = 4096;
  std::vector<double> per_call;
  double sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kPairs; ++i) {
      sink += textjoin::WeightedDot(s->inner_docs[(i * 7919) % n1],
                                    s->outer_docs[(i * 104729 + 13) % n2],
                                    *s->sim);
    }
    per_call.push_back(SecondsSince(t0) * 1e9 / kPairs);
  }
  if (sink < 0) std::fprintf(stderr, "unexpected negative dot sum\n");
  return Median(per_call);
}

// ParallelTextJoin (4 workers, HVNL) over the participating outer
// documents. It partitions C2 itself, so a selective workload first
// copies its selection into a collection of its own; that join's idf then
// covers the selection, and it gets a floor of its own.
Status MeasureParallel(const WorkloadSpec& w, Session* s, const JoinResult& floor,
                       Tracer* tracer, Report* report) {
  JoinContext ctx = s->ctx;
  JoinSpec spec = s->spec;
  std::unique_ptr<DocumentCollection> selected;
  std::unique_ptr<SimilarityContext> sim;
  JoinResult reference = floor;
  if (!spec.outer_subset.empty()) {
    textjoin::CollectionBuilder builder(s->disk.get(), "c2.selected");
    std::vector<Document> docs;
    for (DocId d : spec.outer_subset) {
      TEXTJOIN_RETURN_IF_ERROR(builder.AddDocument(s->outer_docs[d]).status());
      docs.push_back(s->outer_docs[d]);
    }
    TEXTJOIN_ASSIGN_OR_RETURN(DocumentCollection c, builder.Finish());
    selected = Own(std::move(c));
    TEXTJOIN_ASSIGN_OR_RETURN(
        SimilarityContext sc,
        SimilarityContext::Create(*s->inner, *selected, w.similarity));
    sim = Own(std::move(sc));
    std::vector<DocId> ids(docs.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<DocId>(i);
    reference = FloorJoin(s->inner_docs).Run(docs, ids, *sim, kJoinLambda,
                                             nullptr);
    ctx.outer = selected.get();
    ctx.outer_index = nullptr;
    ctx.similarity = sim.get();
    spec.outer_subset.clear();
  }
  textjoin::ParallelTextJoin::Options options;
  options.algorithm = Algorithm::kHvnl;
  options.workers = 4;
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(tracer, "parallel.hvnl");
    const Clock::time_point t0 = Clock::now();
    auto run = textjoin::ParallelTextJoin(options).Run(ctx, spec);
    walls.push_back(SecondsSince(t0));
    report->Check("parallel hvnl", run.ok() ? DiffJoin(reference, run->result)
                                            : run.status().ToString());
  }
  report->Set("parallel.hvnl_s", Median(walls), "s",
              "median of 3, 4 workers run in turn");
  return Status::OK();
}

Status WriteTrace(const std::string& path, const WorkloadSpec& w,
                  const RunOptions& options, const Tracer& tracer,
                  const TracedJoin& traced) {
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot write " + path);
  f << "{\"workload\": " << JsonString(w.name) << ", \"seed\": "
    << options.seed << ", \"build\": " << BuildInfoJson(CurrentBuildInfo())
    << ",\n \"spans\": [";
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfTimes();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    f << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i
      << ", \"name\": " << JsonString(sp.name)
      << ", \"start_s\": " << JsonNumber(sp.start_s)
      << ", \"end_s\": " << JsonNumber(sp.end_s)
      << ", \"self_s\": " << JsonNumber(self[i])
      << ", \"parent\": " << sp.parent << ", \"op\": " << sp.op << "}";
  }
  f << "],\n \"phase_trees\": {";
  for (int r = 0; r < kNumRunners; ++r) {
    f << (r > 0 ? ",\n  " : "\n  ") << JsonString(kRunnerNames[r]) << ": "
      << PhaseJson(traced.stats[r].root);
  }
  f << "}}\n";
  return f.good() ? Status::OK() : Status::Internal("short write " + path);
}

std::string SampleNote(size_t n, const char* what) {
  return "median of " + std::to_string(n) + " " + what;
}

// Sets a percentile metric, or records a failed check when the sample is
// too small to support it and the workload promised it would be.
void SetPercentile(Report* report, const std::string& name,
                   const std::vector<double>& v, double p, int64_t promised,
                   const char* what, const char* unit) {
  auto pct = SupportedPercentile(v, p);
  if (pct) {
    report->Set(name, pct->value, unit,
                "p" + std::to_string(static_cast<int>(p * 100 + 0.5)) +
                    " of " + std::to_string(pct->samples) + " " + what + ", " +
                    std::to_string(pct->beyond) + " beyond");
    return;
  }
  if (promised >= 1000) {
    report->Check(name + " samples",
                  "only " + std::to_string(v.size()) + " " + what);
  }
}

}  // namespace

Status RunWorkload(const WorkloadSpec& w, const RunOptions& options,
                   Report* report) {
  Tracer tracer(false);

  // Set-up, several times: setup_s is the median, and the last set-up's
  // state is the one measured. Set-ups shorter than kSetupBudgetS /
  // setup_reps repeat more, up to about kSetupBudgetS in all, so that
  // their median rests on more samples.
  constexpr double kSetupBudgetS = 2.0;
  constexpr int64_t kMaxSetupReps = 25;
  std::vector<double> setup_total, setup_gen, setup_build, setup_sim,
      setup_dyn;
  std::unique_ptr<Session> s;
  int64_t setup_reps = w.setup_reps;
  for (int64_t rep = 0; rep < setup_reps; ++rep) {
    s.reset();
    tracer.set_enabled(options.trace && rep + 1 == setup_reps);
    SetupTimes t;
    TEXTJOIN_ASSIGN_OR_RETURN(s, SetUp(w, options.seed, &tracer, &t));
    if (rep == 0) {
      const double fit = kSetupBudgetS / std::max(t.total, 1e-6);
      setup_reps = std::clamp(static_cast<int64_t>(fit), w.setup_reps,
                              kMaxSetupReps);
    }
    setup_total.push_back(t.total);
    setup_gen.push_back(t.generate);
    setup_build.push_back(t.build);
    setup_sim.push_back(t.similarity);
    setup_dyn.push_back(t.dynamic);
  }
  tracer.set_enabled(false);

  // The floor: the result every join must equal.
  const FloorJoin floor_join(s->inner_docs);
  const std::vector<DocId> outer_ids =
      textjoin::ParticipatingOuterDocs(s->ctx, s->spec);
  FloorTimes floor_times;
  const Clock::time_point floor_t0 = Clock::now();
  const JoinResult floor = floor_join.Run(s->outer_docs, outer_ids, *s->sim,
                                          kJoinLambda, &floor_times);
  const double floor_s = SecondsSince(floor_t0);
  TEXTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Reference> reference,
                            Reference::Make(w));

  JoinStage join;
  JoinWarmUp(s.get(), floor, report, &join);
  ServeClient client(w, s.get(), options.seed);
  TEXTJOIN_RETURN_IF_ERROR(client.Register());

  // The measured window: serving ops are spread evenly over it and join
  // executions fill the time between them. Past --seconds the loop only
  // finishes the ops and join rounds still owed; the hard cap keeps a slow
  // host inside the time a run may take.
  //
  // A reference join, timed and checked, opens the window and each
  // interval of at least kReferenceEvery, between two ops; one more closes
  // the window. On a shared host the speed of identical work drifts by a
  // fifth within seconds and by more over minutes; dividing each op by the
  // reference joins around it cancels most of that drift, so the
  // end-to-end times are reported in reference joins (unit x_ref) and
  // their seconds are per-layer metrics.
  constexpr double kReferenceEvery = 0.25;
  std::vector<double> ref_walls;
  Clock::time_point last_ref = Clock::now();
  auto time_reference = [&] {
    last_ref = Clock::now();
    ref_walls.push_back(reference->Time(report));
  };
  const double hard_cap_s = 120;
  tracer.set_enabled(options.trace);  // serving spans; joins run untraced
  const Clock::time_point loop_start = Clock::now();
  time_reference();
  for (;;) {
    const double elapsed = SecondsSince(loop_start);
    if (elapsed >= hard_cap_s) break;
    const double due = static_cast<double>(w.serve_ops) *
                       std::min(1.0, elapsed / options.seconds);
    const bool serve_owed = !client.Satisfied();
    const bool serve = serve_owed &&
                       (static_cast<double>(client.stats().ops) < due ||
                        elapsed >= options.seconds);
    if (!serve && elapsed >= options.seconds &&
        join.trials >= w.min_join_trials) {
      break;
    }
    if (SecondsSince(last_ref) >= kReferenceEvery) time_reference();
    const int64_t interval = static_cast<int64_t>(ref_walls.size()) - 1;
    if (serve) {
      client.Step(interval, &tracer, report);
    } else {
      JoinStep(s.get(), floor, interval, report, &join);
    }
  }
  time_reference();
  tracer.set_enabled(false);
  const ServeStage& serve = client.stats();

  double median[kNumRunners];    // seconds
  double relative[kNumRunners];  // reference joins
  for (int r = 0; r < kNumRunners; ++r) {
    median[r] = Median(Walls(join.runs[r]));
    relative[r] = Median(OverReference(join.runs[r], ref_walls));
  }
  const double join_s = median[kAuto];
  const double forced_best = *std::min_element(median + kHhnl, median + kNumRunners);
  const double trial_wall = join_s + median[kHhnl] + median[kHvnl] + median[kVvm];
  char ref_note[128];
  std::snprintf(ref_note, sizeof(ref_note),
                ", each over the reference joins around it (%zu of them, "
                "median %.4g s, min %.4g s, max %.4g s)",
                ref_walls.size(), Median(ref_walls),
                *std::min_element(ref_walls.begin(), ref_walls.end()),
                *std::max_element(ref_walls.begin(), ref_walls.end()));
  const std::string rounds = ref_note;

  // Serving throughput: ops over their summed wall time, in seconds and in
  // reference joins (every op is one query, write or compaction).
  std::vector<Sample> ops = serve.query;
  ops.insert(ops.end(), serve.write.begin(), serve.write.end());
  ops.insert(ops.end(), serve.compact.begin(), serve.compact.end());
  const double busy_s = Sum(Walls(ops));
  const double busy_x = Sum(OverReference(ops, ref_walls));
  const std::string ops_note =
      std::to_string(ops.size()) + " closed-loop ops, checks excluded";

  if (!options.trace) {
    report->Set("setup_s", Median(setup_total), "s",
                SampleNote(setup_total.size(), "set-ups"));
    for (int r = 0; r < kNumRunners; ++r) {
      report->Set(std::string(kRunnerNames[r]) + "_x", relative[r], "x_ref",
                  SampleNote(join.runs[r].size(), "executions") + rounds);
    }
    for (int r = kHhnl; r < kNumRunners; ++r) {
      report->Set(std::string(kRunnerNames[r]) + "_io",
                  join.io[r].Cost(kAlpha), "pages",
                  "sequential + alpha*random page reads (exact)");
    }
    report->Set("serve_op_x", ops.empty() ? 0 : busy_x / ops.size(),
                "x_ref", "mean of " + ops_note);
    const std::vector<double> query_x = OverReference(serve.query, ref_walls);
    const std::vector<double> write_x = OverReference(serve.write, ref_walls);
    SetPercentile(report, "query_p50_x", query_x, 0.50, w.min_queries,
                  "queries", "x_ref");
    SetPercentile(report, "query_p90_x", query_x, 0.90, w.min_queries,
                  "queries", "x_ref");
    SetPercentile(report, "write_p50_x", write_x, 0.50, w.min_writes,
                  "writes", "x_ref");
    SetPercentile(report, "write_p90_x", write_x, 0.90, w.min_writes,
                  "writes", "x_ref");
    report->Set("compact_x", Median(OverReference(serve.compact, ref_walls)),
                "x_ref", SampleNote(serve.compact.size(), "compactions"));
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return Status::OK();
  }

  // ---- Traced pass: the per-layer metrics. ----
  tracer.set_enabled(true);
  report->Set("sim.generate_s", Median(setup_gen), "s");
  report->Set("index.build_s", Median(setup_build), "s");
  report->Set("similarity.create_s", Median(setup_sim), "s");
  report->Set("dynamic.create_s", Median(setup_dyn), "s");

  for (int r = kHhnl; r < kNumRunners; ++r) {
    const std::string a = kRunnerNames[r];
    report->Set("storage." + a + ".seq_reads",
                static_cast<double>(join.io[r].sequential_reads), "pages");
    report->Set("storage." + a + ".rand_reads",
                static_cast<double>(join.io[r].random_reads), "pages");
  }
  TEXTJOIN_RETURN_IF_ERROR(MeasureScanAndDecode(w, s.get(), &tracer, report));

  // The end-to-end times in seconds, unnormalized.
  for (int r = 0; r < kNumRunners; ++r) {
    report->Set(std::string(kRunnerNames[r]) + "_s", median[r], "s",
                SampleNote(join.runs[r].size(), "executions"));
  }
  report->Set("serve_ops_per_s",
              busy_s > 0 ? static_cast<double>(ops.size()) / busy_s : 0,
              "1/s", ops_note);
  const std::vector<double> query_us = Walls(serve.query, 1e6);
  const std::vector<double> write_us = Walls(serve.write, 1e6);
  for (double p : {0.50, 0.90, 0.99}) {
    const std::string pct = std::to_string(static_cast<int>(p * 100 + 0.5));
    SetPercentile(report, "query_p" + pct + "_us", query_us, p,
                  w.min_queries, "queries", "us");
    SetPercentile(report, "write_p" + pct + "_us", write_us, p, w.min_writes,
                  "writes", "us");
  }
  report->Set("compact_s", Median(Walls(serve.compact)), "s",
              SampleNote(serve.compact.size(), "compactions"));

  std::vector<double> plan_s;
  PlanChoice plan;
  for (int rep = 0; rep < 15; ++rep) {
    ScopedSpan span(&tracer, "planner.plan");
    const Clock::time_point t0 = Clock::now();
    auto p = textjoin::JoinPlanner().Plan(s->ctx, s->spec);
    plan_s.push_back(SecondsSince(t0));
    report->Check("plan", p.ok() ? "" : p.status().ToString());
    if (p.ok()) plan = *p;
  }
  report->Set("planner.plan_s", Median(plan_s), "s", SampleNote(15, "plans"));
  report->Set("planner.regret", forced_best > 0 ? join_s / forced_best : 0,
              "ratio", std::string("join_s over the fastest forced executor; "
                                   "planner chose ") +
                           textjoin::AlgorithmName(plan.algorithm));
  const double predicted[kNumRunners] = {
      0, textjoin::HhnlCost(plan.inputs).seq, plan.costs.hvnl.seq,
      plan.costs.vvm.seq};
  for (int r = kHhnl; r < kNumRunners; ++r) {
    const double measured = join.io[r].Cost(kAlpha);
    report->Set(std::string("cost.") + kRunnerNames[r] + ".io_err",
                measured > 0 ? std::abs(predicted[r] / measured - 1) : 0,
                "ratio", "|predicted / measured - 1|, sequential model");
  }

  TracedJoin traced;
  RunTracedJoin(s.get(), floor, &tracer, report, &traced);
  ReportTracedJoin(traced, report);
  report->Set("trace.overhead", trial_wall > 0 ? traced.wall / trial_wall - 1 : 0,
              "ratio", "traced executions over untraced medians, minus 1");

  report->Set("similarity.dot_ns", MeasureDotNs(s.get(), &tracer), "ns",
              "WeightedDot, median of 5 x 4096 pairs");

  std::vector<double> floor_join_s{floor_s};
  std::vector<double> floor_acc{floor_times.accumulate_s};
  std::vector<double> floor_sel{floor_times.select_s};
  for (int rep = 0; rep < 2; ++rep) {
    ScopedSpan span(&tracer, "floor.join");
    FloorTimes t;
    const Clock::time_point t0 = Clock::now();
    JoinResult again = floor_join.Run(s->outer_docs, outer_ids, *s->sim,
                                      kJoinLambda, &t);
    floor_join_s.push_back(SecondsSince(t0));
    floor_acc.push_back(t.accumulate_s);
    floor_sel.push_back(t.select_s);
    report->Check("floor repeat", DiffJoin(floor, again));
  }
  report->Set("floor.join_s", Median(floor_join_s), "s",
              SampleNote(floor_join_s.size(), "runs"));
  report->Set("floor.accumulate_s", Median(floor_acc), "s",
              SampleNote(floor_acc.size(), "runs"));
  report->Set("floor.select_s", Median(floor_sel), "s",
              SampleNote(floor_sel.size(), "runs"));
  report->Set("reference.join_s", Median(ref_walls), "s",
              SampleNote(ref_walls.size(), "reference joins of the window") +
                  ": the unit of the x_ref metrics");

  TEXTJOIN_RETURN_IF_ERROR(
      MeasureParallel(w, s.get(), floor, &tracer, report));

  const double queries =
      static_cast<double>(std::max<size_t>(serve.query.size(), 1));
  report->Set("serve.cache_hit_rate", serve.cache_hits / queries, "ratio");
  report->Set("serve.shed_rate", serve.shed / queries, "ratio");
  auto sim_p50 = SupportedPercentile(serve.sim_latency_ms, 0.50);
  auto sim_p99 = SupportedPercentile(serve.sim_latency_ms, 0.99);
  report->Set("serve.sim_p50_ms", sim_p50 ? sim_p50->value : 0, "ms",
              "scheduler's simulated latency");
  report->Set("serve.sim_p99_ms", sim_p99 ? sim_p99->value : 0, "ms",
              "scheduler's simulated latency");
  report->Set("dynamic.wal_bytes_per_user_byte",
              serve.user_bytes > 0 ? static_cast<double>(serve.wal_bytes) /
                                         static_cast<double>(serve.user_bytes)
                                   : 0,
              "ratio", "user bytes: 5 per inserted cell, 8 per deleted key");
  report->Set("dynamic.compact_slices", Median(serve.compact_slices), "count",
              SampleNote(serve.compact_slices.size(), "compactions"));
  report->Set("dynamic.compact_pages_written", Median(serve.compact_pages),
              "pages", SampleNote(serve.compact_pages.size(), "compactions"));

  if (!options.trace_path.empty()) {
    TEXTJOIN_RETURN_IF_ERROR(
        WriteTrace(options.trace_path, w, options, tracer, traced));
  }
  return Status::OK();
}

}  // namespace perfbench
