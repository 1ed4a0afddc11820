// HHNL shape driver: wall time and result identity of HHNL's forward
// order over synthetic collection shapes x the four weightings x
// lambda in {1, 20}, with HVNL beside it for scale. Each row prints the
// median wall of HHNL and of HVNL and a hash of each result (outer
// document, match documents, score bits). The hashes are the exactness
// gate: the program exits 1 when HHNL's result differs from HVNL's on any
// row, so every row is checked before its time means anything. Because
// the hash covers score bits, it also compares builds: two versions of
// HHNL that print the same hash on a row returned bit-identical results.
//
//   bench_hhnl_shapes [--smoke]
//
// --smoke: a tenth of the documents and one run per row.
//
// HHNL runs with a buffer sized for the shape's outer batch count, so the
// rows exercise batch boundaries; HVNL runs with a buffer that holds its
// whole entry cache. Times are machine-dependent; nothing here is a
// golden.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "sim/synthetic.h"
#include "storage/disk_manager.h"

namespace textjoin {
namespace {

constexpr int64_t kPageSize = 4096;

struct Shape {
  const char* name;
  int64_t n1, n2;          // inner and outer documents
  double k1, k2;           // distinct terms per document
  int64_t vocabulary;
  int64_t batches;         // outer batches HHNL's buffer is sized for
};

// WSJ-, FR- and DOE-like shapes (sim/trec_profiles.h terms per document
// and vocabularies, fewer documents) plus long inner documents against
// short outer ones, all in three batches. "sparse" is a tight buffer
// (X = 2) over a million-term vocabulary: hundreds of small batches whose
// term ids run high, where per-batch work must stay proportional to the
// batch's cells rather than to its largest term id.
constexpr Shape kShapes[] = {
    {"dense", 600, 600, 82, 82, 20000, 3},
    {"long", 300, 300, 254, 254, 40000, 3},
    {"short", 1200, 1200, 22, 22, 20000, 3},
    {"skewed", 600, 600, 200, 12, 10000, 3},
    {"sparse", 300, 300, 254, 254, 1 << 20, 150},
};

struct Weighting {
  const char* name;
  bool cosine;
  bool idf;
};

constexpr Weighting kWeightings[] = {
    {"raw", false, false},
    {"idf", false, true},
    {"cosine", true, false},
    {"cosine+idf", true, true},
};

constexpr int64_t kLambdas[] = {1, 20};

// FNV-1a over the result: outer document, match count, match documents
// and the bits of every score.
uint64_t HashResult(const JoinResult& result) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const OuterMatches& om : result) {
    mix(om.outer_doc);
    mix(om.matches.size());
    for (const Match& m : om.matches) {
      uint64_t bits;
      std::memcpy(&bits, &m.score, sizeof(bits));
      mix(m.doc);
      mix(bits);
    }
  }
  return h;
}

struct Timed {
  double median_s = 0;
  uint64_t hash = 0;
};

// Runs `algo` `runs` times; the median wall and the last result's hash.
Timed TimeRuns(const TextJoinAlgorithm& algo, const JoinContext& ctx,
               const JoinSpec& spec, int runs) {
  std::vector<double> secs;
  Timed t;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = algo.Run(ctx, spec);
    const auto t1 = std::chrono::steady_clock::now();
    TEXTJOIN_CHECK_OK(result.status());
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
    t.hash = HashResult(*result);
  }
  std::sort(secs.begin(), secs.end());
  t.median_s = secs[secs.size() / 2];
  return t;
}

int Main(bool smoke) {
  const int runs = smoke ? 1 : 5;
  std::printf("== HHNL shapes (%s): median of %d run(s) per row ==\n",
              smoke ? "smoke" : "full", runs);
  std::printf("%-7s %-11s %6s %5s %8s %10s %10s %16s %16s\n", "shape",
              "weighting", "lambda", "X", "batches", "hhnl_s", "hvnl_s",
              "hhnl_hash", "hvnl_hash");
  int mismatches = 0;
  for (const Shape& shape : kShapes) {
    const int64_t scale = smoke ? 10 : 1;
    SimulatedDisk disk(kPageSize);
    SyntheticSpec s1{shape.n1 / scale, shape.k1, shape.vocabulary, 1.0, 0,
                     101};
    SyntheticSpec s2{shape.n2 / scale, shape.k2, shape.vocabulary, 1.0, 0,
                     202};
    auto c1 = GenerateCollection(&disk, std::string(shape.name) + ".c1", s1);
    auto c2 = GenerateCollection(&disk, std::string(shape.name) + ".c2", s2);
    TEXTJOIN_CHECK_OK(c1.status());
    TEXTJOIN_CHECK_OK(c2.status());
    auto i1 = InvertedFile::Build(&disk, std::string(shape.name) + ".i1", *c1);
    TEXTJOIN_CHECK_OK(i1.status());

    for (const Weighting& w : kWeightings) {
      SimilarityConfig config;
      config.cosine_normalize = w.cosine;
      config.use_idf = w.idf;
      auto simctx = SimilarityContext::Create(*c1, *c2, config);
      TEXTJOIN_CHECK_OK(simctx.status());
      for (const int64_t lambda : kLambdas) {
        JoinSpec spec;
        spec.lambda = lambda;
        spec.similarity = config;

        JoinContext ctx;
        ctx.inner = &c1.value();
        ctx.outer = &c2.value();
        ctx.inner_index = &i1.value();
        ctx.similarity = &simctx.value();
        ctx.sys.page_size = kPageSize;
        ctx.sys.alpha = 5.0;

        // HHNL: B = ceil(S1) + ceil(N2/batches) * (S2 + 4*lambda/P), so
        // X >= N2/batches and the outer collection goes in at most
        // `batches` batches.
        const double per_doc = c2->avg_doc_size_pages() +
                               4.0 * static_cast<double>(lambda) / kPageSize;
        const double n2 = static_cast<double>(c2->num_documents());
        const double per_batch =
            std::ceil(n2 / static_cast<double>(shape.batches));
        ctx.sys.buffer_pages = static_cast<int64_t>(
            std::ceil(std::ceil(c1->avg_doc_size_pages()) +
                      per_batch * per_doc));
        const int64_t X = HhnlJoin::BatchSize(ctx, spec);
        const int64_t batches = (c2->num_documents() + X - 1) / X;
        const Timed hhnl = TimeRuns(HhnlJoin(), ctx, spec, runs);

        // HVNL: a buffer far above its whole inverted file.
        ctx.sys.buffer_pages = 4 * (c1->size_in_pages() +
                                    i1->size_in_pages() +
                                    c2->size_in_pages()) +
                               1000;
        const Timed hvnl = TimeRuns(HvnlJoin(), ctx, spec, runs);

        const bool same = hhnl.hash == hvnl.hash;
        if (!same) ++mismatches;
        std::printf("%-7s %-11s %6lld %5lld %8lld %10.4f %10.4f %016llx "
                    "%016llx%s\n",
                    shape.name, w.name, static_cast<long long>(lambda),
                    static_cast<long long>(X), static_cast<long long>(batches),
                    hhnl.median_s, hvnl.median_s,
                    static_cast<unsigned long long>(hhnl.hash),
                    static_cast<unsigned long long>(hvnl.hash),
                    same ? "" : "  MISMATCH");
      }
    }
  }
  if (mismatches > 0) {
    std::printf("FAIL: HHNL differs from HVNL on %d row(s)\n", mismatches);
    return 1;
  }
  std::printf("OK: HHNL == HVNL on every row\n");
  return 0;
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return textjoin::Main(smoke);
}
