// perfbench: one run of one workload.
//
//   perfbench --workload batch-sp|batch-control|serve-sp --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a details line (plain medians, p90s, sample counts) and, as the
// last line of standard output, the result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exits 0 when the run completed (whatever `correct` says), 1 otherwise.

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/json.h"
#include "workload.h"

namespace {

// Taken before main() runs, so set-up time starts with the process.
const auto kProcessStart = std::chrono::steady_clock::now();

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread: with glibc's per-thread arenas, memory
  // one thread frees is not reused by another, so serve-sp's peak RSS would
  // depend on which of the server's and the benchmark's threads freed a
  // model first (it varied from 195 to 262 MiB between runs).
  mallopt(M_ARENA_MAX, 1);
  perfbench::RunOptions opts;
  opts.process_start = kProcessStart;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a number");
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || opts.seconds < 1) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opts.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsWorkload(opts.workload)) return Usage("unknown workload");
  if (!have_seed) return Usage("--seed is required");

  auto result = perfbench::RunWorkload(opts);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& e : result->errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  using mad::server::Json;
  Json metrics = Json::Object();
  for (const perfbench::Metric& m : result->metrics) {
    Json v = Json::Object();
    v.Set("value", Json::Double(m.value));
    v.Set("unit", Json::Str(m.unit));
    metrics.Set(m.name, std::move(v));
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(result->correct));
  out.Set("attempted", Json::Int(result->attempted));
  out.Set("failed", Json::Int(result->failed));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n%s\n", result->details.c_str(), out.Dump().c_str());
  return 0;
}
