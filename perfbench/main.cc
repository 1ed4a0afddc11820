// perfbench: runs one workload of the end-to-end benchmark and prints
// every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics (untraced runs only); --trace 1
// adds a traced pass and prints the per-layer metrics instead, writing the
// spans and QueryStats phase trees to --trace-out.
//
// Exit status: 0 when every checked result matched its reference, 1 when
// any did not (the JSON line then says "correct": false), 2 on bad usage
// or a set-up failure (no JSON line).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && ParseUint(value, &n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const WorkloadSpec* found = FindWorkload(workload);
  if (found == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  const WorkloadSpec& spec = *found;

  const BuildInfo build = CurrentBuildInfo();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("# build %s\n", BuildInfoJson(build).c_str());
  if (!build.optimized) {
    std::printf("# WARNING: non-optimized build; timings are not comparable\n");
  }
  std::printf("# sizes: %lld docs per collection, %g terms/doc, %lld-term "
              "vocabulary, outer fraction %g, lambda %lld, B=%lld\n",
              static_cast<long long>(spec.num_documents), spec.terms_per_doc,
              static_cast<long long>(spec.vocabulary), spec.outer_fraction,
              static_cast<long long>(kJoinLambda),
              static_cast<long long>(spec.buffer_pages));
  std::fflush(stdout);

  Report report;
  textjoin::Status st = RunWorkload(spec, options, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  for (const std::string& f : report.failures()) {
    std::printf("# MISMATCH %s\n", f.c_str());
  }
  const double fail_rate =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) / report.attempted()
          : 0;
  for (const auto& [name, m] : report.metrics()) {
    std::printf("%-36s %16.6g %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("%-36s %16.6g %-6s %lld of %lld checked results failed\n",
              "fail_rate", fail_rate, "ratio",
              static_cast<long long>(report.failed()),
              static_cast<long long>(report.attempted()));

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
