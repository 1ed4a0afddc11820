// Posting-list compression ablation (ours): the paper's inverted files
// use fixed 5-byte i-cells; delta+varint coding shrinks them — which in
// the cost model's terms shrinks I (file pages) and J (entry pages), and
// so the measured cost of the inverted-file algorithms. HHNL reads no
// inverted files and is unaffected, shifting the crossover points. The
// size table also carries group-varint, the SIMD-decodable format, so the
// size price of its faster decode is one command away.

#include <cstdio>

#include "storage/disk_manager.h"
#include "common/logging.h"
#include "index/inverted_file.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "sim/synthetic.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;

InvertedFile BuildIndex(SimulatedDisk* disk, const std::string& name,
                        const DocumentCollection& collection,
                        PostingCompression compression) {
  auto index = InvertedFile::Build(disk, name, collection,
                                   InvertedFile::BuildOptions{compression});
  TEXTJOIN_CHECK_OK(index.status());
  return std::move(index).value();
}

// One size row: the collection's inverted file in all three posting
// formats, bytes and plain/compressed ratios.
void ReportSizes(SimulatedDisk* disk, const char* label,
                 const DocumentCollection& collection) {
  const std::string name = collection.name();
  const int64_t plain =
      BuildIndex(disk, name + ".inv", collection, PostingCompression::kNone)
          .size_in_bytes();
  const int64_t varint = BuildIndex(disk, name + ".vinv", collection,
                                    PostingCompression::kDeltaVarint)
                             .size_in_bytes();
  const int64_t gv = BuildIndex(disk, name + ".ginv", collection,
                                PostingCompression::kGroupVarint)
                         .size_in_bytes();
  std::printf("%-8s %12lld %12lld %12lld %8.2f %8.2f %10.2f\n", label,
              static_cast<long long>(plain), static_cast<long long>(varint),
              static_cast<long long>(gv),
              static_cast<double>(plain) / static_cast<double>(varint),
              static_cast<double>(plain) / static_cast<double>(gv),
              static_cast<double>(gv) / static_cast<double>(varint));
}

}  // namespace
}  // namespace textjoin

int main() {
  using namespace textjoin;
  std::printf("== Posting compression: 5-byte cells vs delta+varint vs "
              "group-varint ==\n");

  SimulatedDisk disk(kPage);
  // A dense collection (small universe => small document gaps) and a
  // sparse one (large universe => large gaps, weaker compression), then
  // the WSJ/FR/DOE workload shapes (documents, terms per document,
  // vocabulary) at seed 77.
  struct Shape {
    const char* label;
    SyntheticSpec spec;
  };
  const Shape shapes[] = {
      {"dense", SyntheticSpec{800, 12.0, 600, 1.0, 0, 61}},
      {"sparse", SyntheticSpec{800, 12.0, 60000, 1.0, 0, 62}},
      {"wsj", SyntheticSpec{600, 82.0, 20000, 1.0, 0, 77}},
      {"fr", SyntheticSpec{2000, 254.0, 40000, 1.0, 0, 77}},
      {"doe", SyntheticSpec{4000, 22.0, 20000, 1.0, 0, 77}},
  };
  std::printf("%-8s %12s %12s %12s %8s %8s %10s\n", "shape", "plain(B)",
              "varint(B)", "gv(B)", "p/varint", "p/gv", "gv/varint");
  for (const Shape& shape : shapes) {
    auto collection = GenerateCollection(&disk, shape.label, shape.spec);
    TEXTJOIN_CHECK_OK(collection.status());
    ReportSizes(&disk, shape.label, *collection);
  }

  auto dense = GenerateCollection(&disk, "dense_join", shapes[0].spec);
  TEXTJOIN_CHECK_OK(dense.status());
  InvertedFile::BuildOptions packed_opts{PostingCompression::kDeltaVarint};
  auto dense_plain = InvertedFile::Build(&disk, "dense_join.inv", *dense);
  auto dense_packed =
      InvertedFile::Build(&disk, "dense_join.vinv", *dense, packed_opts);
  TEXTJOIN_CHECK_OK(dense_plain.status());
  TEXTJOIN_CHECK_OK(dense_packed.status());

  // Measured join I/O on the dense workload.
  auto outer = GenerateCollection(
      &disk, "outer", SyntheticSpec{500, 10.0, 600, 1.0, 0, 63});
  TEXTJOIN_CHECK_OK(outer.status());
  auto outer_plain = InvertedFile::Build(&disk, "outer.inv", *outer);
  auto outer_packed =
      InvertedFile::Build(&disk, "outer.vinv", *outer, packed_opts);
  TEXTJOIN_CHECK_OK(outer_plain.status());
  TEXTJOIN_CHECK_OK(outer_packed.status());
  auto simctx = SimilarityContext::Create(*dense, *outer, {});
  TEXTJOIN_CHECK_OK(simctx.status());

  JoinContext ctx;
  ctx.inner = &dense.value();
  ctx.outer = &outer.value();
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{60, kPage, 5.0};
  JoinSpec spec;
  spec.lambda = 10;

  std::printf("\n%-8s %18s %18s\n", "algo", "cost(plain)", "cost(packed)");
  for (int pass = 0; pass < 2; ++pass) {
    ctx.inner_index = &dense_plain.value();
    ctx.outer_index = &outer_plain.value();
    VvmJoin vvm;
    HvnlJoin hvnl;
    double plain_cost, packed_cost;
    auto run = [&](TextJoinAlgorithm& algo) {
      disk.ResetStats();
      disk.ResetHeads();
      TEXTJOIN_CHECK_OK(algo.Run(ctx, spec).status());
      return disk.stats().Cost(5.0);
    };
    if (pass == 0) {
      plain_cost = run(vvm);
      ctx.inner_index = &dense_packed.value();
      ctx.outer_index = &outer_packed.value();
      packed_cost = run(vvm);
      std::printf("%-8s %18.0f %18.0f\n", "VVM", plain_cost, packed_cost);
    } else {
      plain_cost = run(hvnl);
      ctx.inner_index = &dense_packed.value();
      ctx.outer_index = &outer_packed.value();
      packed_cost = run(hvnl);
      std::printf("%-8s %18.0f %18.0f\n", "HVNL", plain_cost, packed_cost);
    }
  }
  return 0;
}
