// Reproduces Table 1 and Figure 5 of the paper: the six key dynamics
// kernels on Intel core / MPE / OpenACC(64 CPE) / Athread(64 CPE).
//
// google-benchmark timings use manual time set to the *modeled* seconds
// from the SW26010 simulator (functional execution + timing model); the
// printed table compares our ratios against the paper's.
//
// Flags (extracted before google-benchmark sees argv):
//   --json <path>   per-kernel numbers as machine-readable JSON
//   --trace <path>  Chrome trace-event timeline of every modeled launch
//                   ("table1/cg" track; open in Perfetto)
//   --small         reduced problem size (CI smoke: 8 elements, 32 levels)

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>
#include <string>

#include "accel/table1.hpp"
#include "obs/report.hpp"

namespace {

accel::Table1Config g_cfg;
obs::Tracer g_tracer(obs::ClockDomain::kVirtual);

const std::vector<accel::Table1Row>& rows() {
  static const auto r = [] {
    sw::CoreGroup cg;  // a lone group: no sibling DMA streams
    return accel::run_table1(cg, g_cfg, &g_tracer);
  }();
  return r;
}

void print_table() {
  std::printf(
      "\n=== Table 1: key kernels, seconds per invocation (%d elements / "
      "process, %d levels, %d tracers) ===\n",
      g_cfg.nelem, g_cfg.nlev, g_cfg.qsize);
  std::printf("%-24s %11s %11s %11s %11s\n", "kernel", "intel", "mpe",
              "openacc", "athread");
  for (const auto& r : rows()) {
    std::printf("%-24s %11.5f %11.5f %11.5f %11.5f\n", r.name.c_str(),
                r.intel_s, r.mpe_s, r.acc_s, r.athread_s);
  }
  std::printf(
      "\n=== Figure 5: speedups (paper ratios in brackets; Intel core = 1) "
      "===\n");
  std::printf("%-24s %16s %16s %18s\n", "kernel", "acc/intel",
              "athread/intel", "athread/acc");
  for (const auto& r : rows()) {
    std::printf("%-24s %8.2f [%5.2f] %8.1f [7-46x] %10.1f\n", r.name.c_str(),
                r.acc_s / r.intel_s, r.paper_acc / r.paper_intel,
                r.intel_s / r.athread_s, r.athread_speedup_vs_acc());
  }
  std::printf(
      "\nShape checks: MPE slowest serial platform; OpenACC rhs slower than "
      "Intel (paper 5.9x, see above); Athread fastest everywhere.\n\n");
}

bool write_json(const std::string& path) {
  obs::Report rep("table1_kernels");
  rep.config()
      .set("nelem", g_cfg.nelem)
      .set("nlev", g_cfg.nlev)
      .set("qsize", g_cfg.qsize);
  obs::Json& kernels = rep.root().arr("kernels");
  for (const auto& r : rows()) {
    kernels.push()
        .set("name", r.name)
        .set("intel_s", r.intel_s)
        .set("mpe_s", r.mpe_s)
        .set("openacc_s", r.acc_s)
        .set("athread_s", r.athread_s)
        .set("flops", r.flops)
        .set("openacc_dma_bytes", r.acc_dma_bytes)
        .set("athread_dma_bytes", r.athread_dma_bytes)
        .set("athread_dma_reused_bytes", r.athread_dma_reused)
        .set("athread_dma_cold_bytes", r.athread_dma_cold)
        .set("athread_fallbacks", r.athread_fallbacks);
  }
  rep.add_summary(g_tracer.summary());
  return rep.write(path);
}

void register_benchmarks() {
  for (const auto& r : rows()) {
    for (auto [plat, secs] :
         {std::pair{"intel", r.intel_s}, std::pair{"mpe", r.mpe_s},
          std::pair{"openacc", r.acc_s}, std::pair{"athread", r.athread_s}}) {
      auto* b = benchmark::RegisterBenchmark(
          (r.name + "/" + plat).c_str(),
          [secs](benchmark::State& state) {
            for (auto _ : state) {
              state.SetIterationTime(secs);
            }
          });
      b->UseManualTime()->Iterations(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  if (opts.small) {
    g_cfg.nelem = 8;
    g_cfg.nlev = 32;
    g_cfg.qsize = 4;
  }
  // The tracer feeds the counter path either way; only keep the (large)
  // per-launch timeline when it is actually going to be exported.
  if (!opts.trace_path.empty() || !opts.json_path.empty()) g_tracer.enable();
  print_table();
  if (!opts.json_path.empty() && !write_json(opts.json_path)) return 1;
  if (!opts.trace_path.empty() &&
      !g_tracer.write_chrome_trace(opts.trace_path)) {
    return 1;
  }
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
