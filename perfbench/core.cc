#include "core.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "kernel/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> Walls(const std::vector<Sample>& v, double scale) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Sample& x : v) out.push_back(x.wall_s * scale);
  return out;
}

std::vector<double> OverReference(const std::vector<Sample>& v,
                                  const std::vector<double>& refs) {
  std::vector<double> around(refs.size() - 1);
  for (size_t k = 0; k < around.size(); ++k) {
    const size_t lo = k > 0 ? k - 1 : 0;
    const size_t hi = std::min(k + 3, refs.size());
    around[k] =
        Median(std::vector<double>(refs.begin() + lo, refs.begin() + hi));
  }
  std::vector<double> out;
  out.reserve(v.size());
  for (const Sample& x : v) {
    out.push_back(x.wall_s / around[static_cast<size_t>(x.interval)]);
  }
  return out;
}

std::optional<Percentile> SupportedPercentile(std::vector<double> v,
                                              double p) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0 || p <= 0 || p >= 1) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it (1-based rank ceil(p*n)); an epsilon keeps p*n integral
  // when it should be (0.99 * 1000 is 990.0000000000001 in binary).
  const int64_t rank = static_cast<int64_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  const int64_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return Percentile{v[static_cast<size_t>(rank - 1)], n, beyond};
}

int Tracer::Begin(const std::string& name, int64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = SecondsSince(t0_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = SecondsSince(t0_);
  open_.pop_back();
}

int Tracer::Add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int64_t op) {
  if (!enabled_) return -1;
  using Seconds = std::chrono::duration<double>;
  return Add(Span{name, Seconds(start - t0_).count(),
                  Seconds(end - t0_).count(),
                  open_.empty() ? -1 : open_.back(), op});
}

int Tracer::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  return self;
}

std::string DiffMatches(const std::vector<textjoin::Match>& want,
                        const std::vector<textjoin::Match>& got) {
  if (want.size() != got.size()) {
    return "row count " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].doc != got[i].doc) {
      return "rank " + std::to_string(i) + " doc " +
             std::to_string(got[i].doc) + ", want " +
             std::to_string(want[i].doc);
    }
    // Bitwise score equality: the executors promise identical doubles.
    if (std::memcmp(&want[i].score, &got[i].score, sizeof(double)) != 0) {
      return "rank " + std::to_string(i) + " score " +
             JsonNumber(got[i].score) + ", want " + JsonNumber(want[i].score);
    }
  }
  return "";
}

std::string DiffJoin(const textjoin::JoinResult& want,
                     const textjoin::JoinResult& got) {
  if (want.size() != got.size()) {
    return "outer row count " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].outer_doc != got[i].outer_doc) {
      return "outer row " + std::to_string(i) + " is doc " +
             std::to_string(got[i].outer_doc) + ", want " +
             std::to_string(want[i].outer_doc);
    }
    std::string d = DiffMatches(want[i].matches, got[i].matches);
    if (!d.empty()) {
      return "outer doc " + std::to_string(want[i].outer_doc) + ": " + d;
    }
  }
  return "";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

void Report::Check(const std::string& what, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what + ": " + error);
}

BuildInfo CurrentBuildInfo() {
  BuildInfo info;
  info.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  info.kernel_level =
      textjoin::kernel::LevelName(textjoin::kernel::ActiveLevel());
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.compiler = PERFBENCH_COMPILER;
#if defined(__OPTIMIZE__)
  info.optimized = true;
#endif
  return info;
}

std::string BuildInfoJson(const BuildInfo& info) {
  return "{\"nproc\": " + std::to_string(info.nproc) +
         ", \"kernel_level\": " + JsonString(info.kernel_level) +
         ", \"build_type\": " + JsonString(info.build_type) +
         ", \"compiler\": " + JsonString(info.compiler) +
         ", \"optimized\": " + (info.optimized ? "true" : "false") + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
