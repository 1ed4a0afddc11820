#ifndef TEXTJOIN_TESTS_TEST_UTIL_H_
#define TEXTJOIN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "index/inverted_file.h"
#include "join/executor.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "storage/disk_manager.h"
#include "text/collection.h"

namespace textjoin {
namespace testing_util {

// Builds a collection from literal documents (each a sorted d-cell list).
inline DocumentCollection BuildCollection(
    Disk* disk, const std::string& name,
    const std::vector<std::vector<DCell>>& docs) {
  CollectionBuilder builder(disk, name);
  for (const auto& cells : docs) {
    TEXTJOIN_CHECK_OK(
        builder.AddDocument(Document::FromSortedCells(cells)).status());
  }
  auto result = builder.Finish();
  TEXTJOIN_CHECK_OK(result.status());
  return std::move(result).value();
}

// A random collection with `num_docs` documents of `terms_per_doc` distinct
// terms drawn Zipf-ish from [0, vocab); weights in [1, 4].
inline DocumentCollection RandomCollection(Disk* disk,
                                           const std::string& name,
                                           int64_t num_docs,
                                           int64_t terms_per_doc,
                                           int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(static_cast<uint64_t>(vocab), 1.0);
  CollectionBuilder builder(disk, name);
  for (int64_t d = 0; d < num_docs; ++d) {
    std::vector<DCell> cells;
    std::vector<char> used(static_cast<size_t>(vocab), 0);
    while (static_cast<int64_t>(cells.size()) < terms_per_doc) {
      TermId t = static_cast<TermId>(zipf.Sample(&rng));
      if (used[t]) continue;
      used[t] = 1;
      cells.push_back(DCell{t, static_cast<Weight>(1 + rng.NextBounded(4))});
    }
    std::sort(cells.begin(), cells.end(),
              [](const DCell& a, const DCell& b) { return a.term < b.term; });
    TEXTJOIN_CHECK_OK(
        builder.AddDocument(Document::FromSortedCells(cells)).status());
  }
  auto result = builder.Finish();
  TEXTJOIN_CHECK_OK(result.status());
  return std::move(result).value();
}

// Reference implementation: reads every document pair directly and keeps
// the top-lambda matches per outer document.
inline JoinResult BruteForceJoin(const DocumentCollection& inner,
                                 const DocumentCollection& outer,
                                 const SimilarityContext& simctx,
                                 const JoinSpec& spec) {
  std::vector<DocId> outer_docs = spec.outer_subset;
  if (outer_docs.empty()) {
    for (int64_t d = 0; d < outer.num_documents(); ++d) {
      outer_docs.push_back(static_cast<DocId>(d));
    }
  }
  std::vector<char> inner_member;
  if (!spec.inner_subset.empty()) {
    inner_member.assign(static_cast<size_t>(inner.num_documents()), 0);
    for (DocId d : spec.inner_subset) inner_member[d] = 1;
  }

  JoinResult result;
  for (DocId od : outer_docs) {
    auto d2 = outer.ReadDocument(od);
    TEXTJOIN_CHECK_OK(d2.status());
    TopKAccumulator heap(spec.lambda);
    for (int64_t id = 0; id < inner.num_documents(); ++id) {
      if (!inner_member.empty() && !inner_member[id]) continue;
      auto d1 = inner.ReadDocument(static_cast<DocId>(id));
      TEXTJOIN_CHECK_OK(d1.status());
      double acc = WeightedDot(*d1, *d2, simctx);
      if (acc <= 0) continue;
      heap.Add(static_cast<DocId>(id),
               simctx.Finalize(acc, static_cast<DocId>(id), od));
    }
    result.push_back(OuterMatches{od, heap.TakeSorted()});
  }
  return result;
}

// Builds a ready-to-run JoinContext over two collections, including both
// inverted files and a similarity context owned by the returned struct.
// Heap-allocated and pinned: the SimilarityContext holds pointers to the
// collections, so the fixture must not relocate.
struct JoinFixture {
  Disk* disk;
  DocumentCollection inner;
  DocumentCollection outer;
  InvertedFile inner_index;
  InvertedFile outer_index;
  SimilarityContext simctx;

  JoinFixture(Disk* d, DocumentCollection in, DocumentCollection out,
              InvertedFile in_idx, InvertedFile out_idx)
      : disk(d),
        inner(std::move(in)),
        outer(std::move(out)),
        inner_index(std::move(in_idx)),
        outer_index(std::move(out_idx)) {}
  JoinFixture(const JoinFixture&) = delete;
  JoinFixture& operator=(const JoinFixture&) = delete;

  JoinContext Context(int64_t buffer_pages) const {
    JoinContext ctx;
    ctx.inner = &inner;
    ctx.outer = &outer;
    ctx.inner_index = &inner_index;
    ctx.outer_index = &outer_index;
    ctx.similarity = &simctx;
    ctx.sys.buffer_pages = buffer_pages;
    ctx.sys.page_size = disk->page_size();
    ctx.sys.alpha = 5.0;
    return ctx;
  }
};

inline std::unique_ptr<JoinFixture> MakeFixture(
    Disk* disk, DocumentCollection inner, DocumentCollection outer,
    SimilarityConfig config = {},
    PostingCompression compression = PostingCompression::kNone) {
  InvertedFile::BuildOptions opts;
  opts.compression = compression;
  auto inner_index =
      InvertedFile::Build(disk, inner.name() + ".inv", inner, opts);
  TEXTJOIN_CHECK_OK(inner_index.status());
  auto outer_index =
      InvertedFile::Build(disk, outer.name() + ".inv", outer, opts);
  TEXTJOIN_CHECK_OK(outer_index.status());
  auto f = std::make_unique<JoinFixture>(
      disk, std::move(inner), std::move(outer),
      std::move(inner_index).value(), std::move(outer_index).value());
  auto simctx = SimilarityContext::Create(f->inner, f->outer, config);
  TEXTJOIN_CHECK_OK(simctx.status());
  f->simctx = std::move(simctx).value();
  disk->ResetStats();
  disk->ResetHeads();
  return f;
}

}  // namespace testing_util
}  // namespace textjoin

#endif  // TEXTJOIN_TESTS_TEST_UTIL_H_
