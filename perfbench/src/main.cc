// perfbench: the repository's canonical end-to-end benchmark.
//
//   perfbench --workload <session-served|zipf-direct|mixed-open>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints the workload's provenance, a readable metric table and, as its
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
// Exit codes: 0 measured and correct; 1 a wrong answer or harness fault
// (result still printed); 2 usage; 3 the run could not be measured.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<session-served|zipf-direct|mixed-open> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (!perfbench::IsWorkload(args.workload)) return Usage("unknown workload");
  if (!(args.seconds > 0 && args.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }

  auto result = perfbench::RunWorkload(args);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n",
                 result.status().ToString().c_str());
    return 3;
  }
  if (!result->invalid.empty()) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 result->invalid.c_str());
    return 3;
  }
  std::printf("%s metrics (%s):\n", args.workload.c_str(),
              args.trace ? "per-layer, traced" : "end-to-end, untraced");
  result->report.PrintTable();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result->correct ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed),
              result->report.MetricsJson().c_str());
  return result->correct ? 0 : 1;
}
