// A2: google-benchmark microbenchmarks of the computational kernels the
// executors are built from — the similarity merge, top-k maintenance,
// cell decoding, B+tree lookups and the HVNL accumulation loop.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "storage/disk_manager.h"
#include "common/logging.h"

#include "common/random.h"
#include "index/btree.h"
#include "index/inverted_file.h"
#include "join/pruning.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "kernel/aligned.h"
#include "text/collection.h"

namespace textjoin {

// Process-wide heap-allocation counter, bumped by the replaced global
// operator new below. BM_BlockDecodeZeroAlloc diffs it across the timed
// loop to prove the steady-state block-decode path never allocates.
std::atomic<int64_t> g_heap_allocs{0};

namespace {

Document MakeDoc(int64_t terms, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> used(static_cast<size_t>(vocab), 0);
  std::vector<DCell> cells;
  while (static_cast<int64_t>(cells.size()) < terms) {
    TermId t = static_cast<TermId>(rng.NextBounded(static_cast<uint64_t>(vocab)));
    if (used[t]) continue;
    used[t] = 1;
    cells.push_back(DCell{t, static_cast<Weight>(1 + rng.NextBounded(4))});
  }
  std::sort(cells.begin(), cells.end(),
            [](const DCell& a, const DCell& b) { return a.term < b.term; });
  return Document::FromSortedCells(std::move(cells));
}

void BM_DotSimilarity(benchmark::State& state) {
  const int64_t terms = state.range(0);
  Document a = MakeDoc(terms, terms * 4, 1);
  Document b = MakeDoc(terms, terms * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotSimilarity(a, b));
  }
  state.SetItemsProcessed(state.iterations() * terms * 2);
  state.SetBytesProcessed(state.iterations() * terms * 2 *
                          static_cast<int64_t>(sizeof(DCell)));
}
BENCHMARK(BM_DotSimilarity)->Arg(32)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void BM_WeightedDot(benchmark::State& state) {
  const int64_t terms = state.range(0);
  SimulatedDisk disk(4096);
  CollectionBuilder b1(&disk, "a"), b2(&disk, "b");
  TEXTJOIN_CHECK_OK(
      b1.AddDocument(Document::FromSortedCells({{1, 1}})).status());
  TEXTJOIN_CHECK_OK(
      b2.AddDocument(Document::FromSortedCells({{1, 1}})).status());
  auto c1 = std::move(b1.Finish()).value();
  auto c2 = std::move(b2.Finish()).value();
  auto ctx = SimilarityContext::Create(c1, c2, {});
  Document a = MakeDoc(terms, terms * 4, 1);
  Document b = MakeDoc(terms, terms * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedDot(a, b, *ctx));
  }
  state.SetItemsProcessed(state.iterations() * terms * 2);
  state.SetBytesProcessed(state.iterations() * terms * 2 *
                          static_cast<int64_t>(sizeof(DCell)));
}
BENCHMARK(BM_WeightedDot)->Arg(32)->Arg(64)->Arg(512);

// Minimal two-collection pair so the weighted kernels can resolve their
// configuration; the benchmark documents themselves never touch it.
struct TrivialCollections {
  explicit TrivialCollections(SimulatedDisk* disk)
      : c1(Build(disk, "ka")), c2(Build(disk, "kb")) {}
  static DocumentCollection Build(SimulatedDisk* disk, const char* name) {
    CollectionBuilder b(disk, name);
    TEXTJOIN_CHECK_OK(
        b.AddDocument(Document::FromSortedCells({{1, 1}})).status());
    return std::move(b.Finish()).value();
  }
  DocumentCollection c1, c2;
};

// The galloping switch in one picture: sweep the document length ratio
// with the linear walk (arg 0: WeightedDotDetailed) and with the kernel
// that picks by length (arg 1: WeightedDotKernel). Linear pays short+long
// steps per pair, galloping short*(2*log2(ratio)+2); WeightedDotKernel
// switches at kGallopSizeRatio. Both produce bit-identical sums.
void BM_MergeSkew(benchmark::State& state) {
  const int64_t skew = state.range(0);
  const bool by_length = state.range(1) != 0;
  const int64_t short_terms = 48;
  const int64_t long_terms = short_terms * skew;
  SimulatedDisk disk(4096);
  TrivialCollections cols(&disk);
  auto ctx = SimilarityContext::Create(cols.c1, cols.c2, {});
  Document a = MakeDoc(short_terms, long_terms * 4, 1);
  Document b = MakeDoc(long_terms, long_terms * 4, 2);
  int64_t steps = 0;
  for (auto _ : state) {
    DotDetail d = by_length ? WeightedDotKernel(a, b, *ctx)
                            : WeightedDotDetailed(a, b, *ctx);
    steps = d.merge_steps;
    benchmark::DoNotOptimize(d.acc);
  }
  state.counters["merge_steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(state.iterations() * steps);
  state.SetBytesProcessed(state.iterations() * (short_terms + long_terms) *
                          static_cast<int64_t>(sizeof(DCell)));
}
BENCHMARK(BM_MergeSkew)->ArgsProduct({{1, 4, 16, 64, 256}, {0, 1}});

// The bound-check fast path HHNL runs before each candidate merge: three
// precomputed scalars per side, two multiplies and a heap comparison —
// O(1) regardless of document size, which is the whole point of checking
// before merging.
void BM_PairBoundCheck(benchmark::State& state) {
  const int64_t terms = state.range(0);
  SimulatedDisk disk(4096);
  TrivialCollections cols(&disk);
  auto ctx = SimilarityContext::Create(cols.c1, cols.c2, {});
  Document outer = MakeDoc(terms, terms * 4, 1);
  DocBounds outer_bounds = ComputeDocBounds(outer, *ctx, 1.0);
  constexpr int kCandidates = 256;
  std::vector<DocBounds> cand;
  for (int i = 0; i < kCandidates; ++i) {
    cand.push_back(ComputeDocBounds(
        MakeDoc(terms, terms * 4, 100 + static_cast<uint64_t>(i)), *ctx, 1.0));
  }
  TopKAccumulator heap(20);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    heap.Add(static_cast<DocId>(i),
             static_cast<double>(1 + rng.NextBounded(1000)));
  }
  for (auto _ : state) {
    int64_t pruned = 0;
    for (int i = 0; i < kCandidates; ++i) {
      const double ub = PairUpperBound(outer_bounds, cand[i]) * kBoundSlack;
      pruned += heap.CannotQualify(static_cast<DocId>(i), ub) ? 1 : 0;
    }
    benchmark::DoNotOptimize(pruned);
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK(BM_PairBoundCheck)->Arg(32)->Arg(512)->Arg(2048);

void BM_TopKAdd(benchmark::State& state) {
  const int64_t k = state.range(0);
  Rng rng(7);
  std::vector<Match> stream;
  for (int i = 0; i < 10000; ++i) {
    stream.push_back(Match{static_cast<DocId>(i),
                           static_cast<double>(rng.NextBounded(1000) + 1)});
  }
  for (auto _ : state) {
    TopKAccumulator acc(k);
    for (const Match& m : stream) acc.Add(m.doc, m.score);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TopKAdd)->Arg(1)->Arg(20)->Arg(200);

void BM_DecodeICells(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<ICell> cells;
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(ICell{static_cast<DocId>(i), 2});
  }
  std::vector<uint8_t> bytes;
  EncodeICells(cells, &bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecodeICells(bytes.data(), static_cast<int64_t>(bytes.size()), n));
  }
  state.SetBytesProcessed(state.iterations() * n * kICellBytes);
}
BENCHMARK(BM_DecodeICells)->Arg(64)->Arg(4096);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  SimulatedDisk disk(4096);
  std::vector<BPlusTree::LeafCell> cells;
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(BPlusTree::LeafCell{static_cast<TermId>(i * 2),
                                        static_cast<uint32_t>(i), 1});
  }
  auto tree = BPlusTree::BulkLoad(&disk, "t", cells);
  TEXTJOIN_CHECK_OK(tree.status());
  Rng rng(9);
  for (auto _ : state) {
    TermId t = static_cast<TermId>(rng.NextBounded(static_cast<uint64_t>(n)) * 2);
    benchmark::DoNotOptimize(tree->Lookup(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

// The steady-state block-decode path must not allocate: PostingCursor
// sizes its cell buffer once per entry and DecodePostingBlockInto fills
// caller-owned storage, so per-block decode work is pure compute. The
// replaced global operator new (bottom of this file) counts every heap
// allocation in the process; allocs_per_iter over 64 decoded blocks must
// read 0.000 for both representations.
void BM_BlockDecodeZeroAlloc(benchmark::State& state) {
  const auto compression = static_cast<PostingCompression>(state.range(0));
  const int64_t num_blocks = 64;
  std::vector<ICell> cells;
  for (int64_t i = 0; i < num_blocks * kPostingBlockCells; ++i) {
    cells.push_back(
        ICell{static_cast<DocId>(i * 3), static_cast<Weight>(1 + i % 9)});
  }
  std::vector<uint8_t> bytes;
  std::vector<InvertedFile::PostingBlockMeta> blocks;
  EncodePostings(cells, compression, &bytes, &blocks);
  kernel::ICellBuffer scratch(static_cast<size_t>(kPostingBlockCells));
  const auto decode_all = [&] {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const int64_t end = b + 1 < blocks.size()
                              ? blocks[b + 1].offset_bytes
                              : static_cast<int64_t>(bytes.size());
      TEXTJOIN_CHECK_OK(DecodePostingBlockInto(
          bytes.data() + blocks[b].offset_bytes,
          end - blocks[b].offset_bytes, blocks[b].cell_count, compression,
          scratch.data()));
    }
  };
  decode_all();  // warm up before the allocation snapshot
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    decode_all();
    benchmark::DoNotOptimize(scratch.data());
  }
  const int64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations() * num_blocks *
                          kPostingBlockCells);
}
BENCHMARK(BM_BlockDecodeZeroAlloc)
    ->Arg(static_cast<int64_t>(PostingCompression::kDeltaVarint))
    ->Arg(static_cast<int64_t>(PostingCompression::kGroupVarint));

void BM_AccumulateEntry(benchmark::State& state) {
  // The HVNL inner loop: merge one inverted entry into the accumulator.
  const int64_t n = state.range(0);
  std::vector<ICell> entry;
  for (int64_t i = 0; i < n; ++i) {
    entry.push_back(ICell{static_cast<DocId>(i * 3), 2});
  }
  std::unordered_map<DocId, double> acc;
  for (auto _ : state) {
    for (const ICell& c : entry) {
      acc[c.doc] += static_cast<double>(c.weight) * 2.0;
    }
    benchmark::DoNotOptimize(acc.size());
    if (acc.size() > 500000) acc.clear();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AccumulateEntry)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace textjoin

// Counting replacements of the global allocation functions, for
// BM_BlockDecodeZeroAlloc. operator new[] funnels through operator new by
// default, so these four cover every heap allocation in the process.
void* operator new(std::size_t n) {
  textjoin::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align) {
  textjoin::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

BENCHMARK_MAIN();
