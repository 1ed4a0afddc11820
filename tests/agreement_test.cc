#include <gtest/gtest.h>

#include <tuple>

#include "storage/disk_manager.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// The paper's central implicit invariant: HHNL, HVNL and VVM are three
// evaluation strategies for the SAME operator, so they must produce
// identical results for every input. This sweep drives all three (plus
// both HHNL orders and both HVNL replacement policies) across collection
// shapes, buffer sizes, lambdas and similarity configurations, comparing
// everything against a brute-force reference.

struct AgreementCase {
  int64_t n1, k1;       // inner: documents, terms per doc
  int64_t n2, k2;       // outer
  int64_t vocab;
  int64_t buffer_pages;
  int64_t lambda;
  bool cosine;
  bool idf;
  bool outer_subset;
  bool inner_subset;
};

class AgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(AgreementTest, AllAlgorithmsAgree) {
  const AgreementCase& p = GetParam();
  SimulatedDisk disk(256);
  auto inner = RandomCollection(&disk, "c1", p.n1, p.k1, p.vocab,
                                static_cast<uint64_t>(p.n1 * 7 + p.k1));
  auto outer = RandomCollection(&disk, "c2", p.n2, p.k2, p.vocab,
                                static_cast<uint64_t>(p.n2 * 13 + p.k2));
  SimilarityConfig config;
  config.cosine_normalize = p.cosine;
  config.use_idf = p.idf;
  auto f = MakeFixture(&disk, std::move(inner), std::move(outer), config);

  JoinSpec spec;
  spec.lambda = p.lambda;
  spec.similarity = config;
  if (p.outer_subset) {
    for (DocId d = 1; d < p.n2; d += 3) spec.outer_subset.push_back(d);
  }
  if (p.inner_subset) {
    for (DocId d = 0; d < p.n1; d += 2) spec.inner_subset.push_back(d);
  }

  JoinContext ctx = f->Context(p.buffer_pages);
  JoinResult expected = BruteForceJoin(f->inner, f->outer, f->simctx, spec);

  HhnlJoin hhnl;
  auto r = hhnl.Run(ctx, spec);
  ASSERT_TRUE(r.ok()) << "HHNL: " << r.status();
  EXPECT_EQ(*r, expected) << "HHNL";

  HhnlJoin backward(HhnlJoin::Options{/*backward=*/true});
  r = backward.Run(ctx, spec);
  ASSERT_TRUE(r.ok()) << "HHNL backward: " << r.status();
  EXPECT_EQ(*r, expected) << "HHNL backward";

  HvnlJoin hvnl;
  r = hvnl.Run(ctx, spec);
  ASSERT_TRUE(r.ok()) << "HVNL: " << r.status();
  EXPECT_EQ(*r, expected) << "HVNL";

  VvmJoin vvm;
  r = vvm.Run(ctx, spec);
  ASSERT_TRUE(r.ok()) << "VVM: " << r.status();
  EXPECT_EQ(*r, expected) << "VVM";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AgreementTest,
    ::testing::Values(
        // Baseline raw-count joins of assorted shapes.
        AgreementCase{30, 5, 20, 4, 40, 100, 3, false, false, false, false},
        AgreementCase{60, 8, 40, 6, 80, 100, 5, false, false, false, false},
        AgreementCase{10, 12, 50, 3, 30, 100, 2, false, false, false, false},
        // Dense vocabulary: every pair shares terms.
        AgreementCase{25, 6, 25, 6, 8, 100, 4, false, false, false, false},
        // Tight memory (multiple HHNL batches, HVNL thrash, VVM passes).
        AgreementCase{40, 6, 30, 5, 50, 12, 3, false, false, false, false},
        // Cosine and idf weighting.
        AgreementCase{30, 5, 20, 4, 40, 100, 3, true, false, false, false},
        AgreementCase{30, 5, 20, 4, 40, 100, 3, false, true, false, false},
        AgreementCase{30, 5, 20, 4, 40, 100, 3, true, true, false, false},
        // Selections on either side and both.
        AgreementCase{30, 5, 20, 4, 40, 100, 3, false, false, true, false},
        AgreementCase{30, 5, 20, 4, 40, 100, 3, false, false, false, true},
        AgreementCase{30, 5, 20, 4, 40, 100, 3, false, false, true, true},
        // Lambda extremes.
        AgreementCase{30, 5, 20, 4, 40, 100, 1, false, false, false, false},
        AgreementCase{30, 5, 20, 4, 40, 100, 100, false, false, false, false},
        // Self-join shape (identical specs, different seeds per side).
        AgreementCase{35, 6, 35, 6, 45, 100, 4, false, false, false, false},
        // Tight memory combined with subsets and cosine.
        AgreementCase{40, 6, 30, 5, 50, 12, 3, true, false, true, true}));

}  // namespace
}  // namespace textjoin
