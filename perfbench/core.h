// Measurement plumbing of the end-to-end benchmark: summary statistics,
// the span recorder that times each layer from outside, the result
// checkers, and the metric sink the benchmark prints.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "join/executor.h"
#include "join/topk.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Summary statistics ----------------------------------------------

// Median of a non-empty sample (mean of the two middle values when even).
double Median(std::vector<double> v);

// Nearest-rank percentile that is only reported when at least
// kMinBeyond samples lie above its rank: a p99 needs >= 1000 samples.
inline constexpr int64_t kMinBeyond = 10;
struct Percentile {
  double value = 0;
  int64_t samples = 0;  // sample count the percentile was taken over
  int64_t beyond = 0;   // samples ranked above it
};
std::optional<Percentile> SupportedPercentile(std::vector<double> v,
                                              double p);

// One timed operation and the interval of the measured window it ran in.
// Timed reference joins delimit the intervals: reference k opens interval
// k and reference k + 1 closes it.
struct Sample {
  double wall_s = 0;
  int64_t interval = 0;
};

// The samples' wall times, times `scale`.
std::vector<double> Walls(const std::vector<Sample>& v, double scale = 1);

// Each sample's wall time in reference joins: over the median of the
// reference joins that open and close its interval and the one on either
// side (fewer at the ends), which tracks the host's speed at that moment
// while damping the noise of single reference joins. `refs` holds the
// reference joins' wall times in order, one more than there are
// intervals.
std::vector<double> OverReference(const std::vector<Sample>& v,
                                  const std::vector<double>& refs);

// ---- Spans -----------------------------------------------------------

// One timed interval around a call into a layer. Spans of one serving
// operation share `op`; `parent` indexes the enclosing span (-1 = none).
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int64_t op = -1;
};

// Records spans in memory while enabled; a disabled tracer records
// nothing and costs one branch per call. Spans nest by call order and
// close innermost first.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Begin(const std::string& name, int64_t op = -1);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Records a call the caller timed itself as a finished span under the
  // innermost open one, so that recording stays outside the timed region;
  // returns its id (-1 when disabled).
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int64_t op = -1);
  // Adds a finished span as given.
  int Add(Span span);

  // Self time of every span: its duration minus its direct children's.
  std::vector<double> SelfTimes() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t op = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Checkers --------------------------------------------------------

// Empty when `got` equals `want` bit for bit (documents, scores, order);
// otherwise a one-line description of the first difference.
std::string DiffMatches(const std::vector<textjoin::Match>& want,
                        const std::vector<textjoin::Match>& got);
std::string DiffJoin(const textjoin::JoinResult& want,
                     const textjoin::JoinResult& got);

// ---- Metrics ---------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  // how it was measured: sample count, source
};

// Ordered name -> metric map plus the pass/fail tally of checked results.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  bool Has(const std::string& name) const { return metrics_.count(name); }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  // One checked operation; `error` empty means it matched its reference.
  void Check(const std::string& what, const std::string& error);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
};

// Host and build facts printed with every result.
struct BuildInfo {
  int nproc = 0;
  std::string kernel_level;
  std::string build_type;
  std::string compiler;
  bool optimized = false;
};
BuildInfo CurrentBuildInfo();
std::string BuildInfoJson(const BuildInfo& info);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// JSON string literal with escapes.
std::string JsonString(const std::string& s);
// Text that reads back as exactly `v` (null when not finite).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
