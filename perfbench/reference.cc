#include "reference.h"

#include <algorithm>

#include "core.h"

namespace perfbench {

using textjoin::DCell;
using textjoin::DocId;
using textjoin::Document;
using textjoin::Match;

FloorJoin::FloorJoin(const std::vector<Document>& inner)
    : num_inner_(static_cast<int64_t>(inner.size())) {
  for (size_t d = 0; d < inner.size(); ++d) {
    for (const DCell& c : inner[d].cells()) {
      if (c.term >= postings_.size()) postings_.resize(c.term + 1);
      postings_[c.term].push_back(
          Posting{static_cast<DocId>(d), static_cast<double>(c.weight)});
    }
  }
}

textjoin::JoinResult FloorJoin::Run(const std::vector<Document>& outer,
                                    const std::vector<DocId>& outer_ids,
                                    const textjoin::SimilarityContext& sim,
                                    int64_t lambda,
                                    FloorTimes* times) const {
  std::vector<double> acc(static_cast<size_t>(num_inner_), 0.0);
  std::vector<char> seen(static_cast<size_t>(num_inner_), 0);
  std::vector<DocId> touched;
  std::vector<Match> candidates;
  textjoin::JoinResult result;
  result.reserve(outer_ids.size());
  double accumulate_s = 0;
  double select_s = 0;
  for (DocId outer_doc : outer_ids) {
    const Clock::time_point t0 = Clock::now();
    // Terms ascend within a document, so every pair's sum is built in
    // ascending term order — the order the executors promise.
    for (const DCell& c : outer[outer_doc].cells()) {
      if (c.term >= postings_.size()) continue;
      const double factor = sim.TermFactor(c.term);
      const double v = static_cast<double>(c.weight);
      for (const Posting& p : postings_[c.term]) {
        if (!seen[p.doc]) {
          seen[p.doc] = 1;
          touched.push_back(p.doc);
        }
        acc[p.doc] += p.weight * v * factor;
      }
    }
    const Clock::time_point t1 = Clock::now();
    candidates.clear();
    for (DocId d : touched) {
      candidates.push_back(Match{d, sim.Finalize(acc[d], d, outer_doc)});
      acc[d] = 0;
      seen[d] = 0;
    }
    touched.clear();
    result.push_back(textjoin::OuterMatches{
        outer_doc, SelectBest(std::move(candidates), lambda)});
    candidates = {};
    const Clock::time_point t2 = Clock::now();
    accumulate_s += std::chrono::duration<double>(t1 - t0).count();
    select_s += std::chrono::duration<double>(t2 - t1).count();
  }
  if (times != nullptr) *times = FloorTimes{accumulate_s, select_s};
  return result;
}

std::vector<Match> SelectBest(std::vector<Match> candidates, int64_t lambda) {
  std::erase_if(candidates, [](const Match& m) { return !(m.score > 0); });
  const size_t keep =
      std::min(candidates.size(), static_cast<size_t>(std::max<int64_t>(
                                      lambda, 0)));
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), textjoin::BetterMatch);
  candidates.resize(keep);
  return candidates;
}

std::vector<Match> BruteForceTopLambda(const std::vector<const Document*>& docs,
                                       const Document& query,
                                       int64_t lambda) {
  std::vector<Match> candidates;
  for (size_t i = 0; i < docs.size(); ++i) {
    const std::vector<DCell>& d = docs[i]->cells();
    double acc = 0;
    auto from = d.begin();
    for (const DCell& q : query.cells()) {
      from = std::lower_bound(
          from, d.end(), q.term,
          [](const DCell& c, textjoin::TermId t) { return c.term < t; });
      if (from != d.end() && from->term == q.term) {
        acc += static_cast<double>(q.weight) * static_cast<double>(from->weight);
      }
    }
    if (acc > 0) candidates.push_back(Match{static_cast<DocId>(i), acc});
  }
  return SelectBest(std::move(candidates), lambda);
}

}  // namespace perfbench
