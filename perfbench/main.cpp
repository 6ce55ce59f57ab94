// perfbench — the repository benchmark binary (see README.md).
//
//   perfbench --workload climate-hero|ensemble-client|ensemble-service|
//                        parallel-dycore
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Progress and failed checks go to stderr. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit codes: 0 all checks passed; 1 a check failed (the result line is
// still printed); 2 a malformed command line; 3 the run could not be
// measured (no result line).

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const ArgError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (args.workdir.empty()) {
    args.workdir = ".bench_build/perfbench-work-" + std::to_string(getpid());
  }

  try {
    Outcome out;
    {
      const WorkDir dir(args.workdir);
      BenchTracer bt(args.trace);
      switch (args.workload) {
        case Workload::kClimateHero:
          out = run_climate_hero(args, bt, dir);
          break;
        case Workload::kEnsembleClient:
          out = run_ensemble_client(args, bt, dir);
          break;
        case Workload::kEnsembleService:
          out = run_ensemble_service(args, bt, dir);
          break;
        case Workload::kParallelDycore:
          out = run_parallel_dycore(args, bt, dir);
          break;
      }
    }
    for (const std::string& why : out.failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    }
    const auto metrics = args.trace ? ordered(kPerLayer, out.per_layer)
                                    : ordered(kEndToEnd, out.end_to_end);
    for (const Metric& m : metrics) {
      std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::printf("%s\n", result_json(out.correct(), out.attempted, out.failed,
                                    metrics)
                            .c_str());
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n",
                 std::string(workload_name(args.workload)).c_str(), e.what());
    return 3;
  }
}
