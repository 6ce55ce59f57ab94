#include "accel/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/accel_driver.hpp"
#include "accel/euler_acc.hpp"
#include "accel/hypervis_acc.hpp"
#include "accel/physics_acc.hpp"
#include "accel/remap_acc.hpp"
#include "accel/table1.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "homme/remap.hpp"
#include "mesh/cubed_sphere.hpp"
#include "model/session.hpp"
#include "obs/trace.hpp"
#include "sw/fault.hpp"

namespace {

struct ChainSetup {
  accel::PackedElems base;
  accel::EulerAccConfig euler_cfg{};
  accel::EulerDerived derived;
  accel::HypervisAccConfig hv_cfg{};

  ChainSetup(int nelem, int nlev, int qsize) {
    homme::Dims d;
    d.nlev = nlev;
    d.qsize = qsize;
    auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
    base = accel::PackedElems::synthetic(mesh, d, nelem);
    derived = accel::EulerDerived::make(base, euler_cfg.shared_extra);
  }
};

/// Runs euler -> hypervis_dp2 -> biharmonic_dp3d -> vertical_remap either
/// as ONE fused pipeline or as four isolated single-kernel launches.
sw::KernelStats run_chain(ChainSetup& s, accel::PackedElems& p, bool fused) {
  accel::EulerKernel euler(p, s.derived, s.euler_cfg);
  accel::HypervisKernel dp2(p, accel::HvKernel::kDp2, s.hv_cfg);
  accel::HypervisKernel dp3d(p, accel::HvKernel::kBiharmDp3d, s.hv_cfg);
  accel::RemapKernel remap(p);
  const std::vector<const accel::Kernel*> kernels{&euler, &dp2, &dp3d,
                                                  &remap};
  if (fused) {
    sw::CoreGroup cg;
    return accel::KernelPipeline(kernels).run(cg);
  }
  sw::KernelStats total;
  for (const accel::Kernel* k : kernels) {
    sw::CoreGroup cg;  // fresh group: no residency carries over
    const auto stats = accel::KernelPipeline({k}).run(cg);
    total.cycles += stats.cycles;
    total.seconds += stats.seconds;
    total.totals += stats.totals;
  }
  return total;
}

TEST(KernelPipeline, ChainMatchesIsolatedBitExact) {
  ChainSetup s(8, 32, 6);
  accel::PackedElems isolated = s.base;
  accel::PackedElems chained = s.base;
  (void)run_chain(s, isolated, /*fused=*/false);
  (void)run_chain(s, chained, /*fused=*/true);
  EXPECT_EQ(accel::packed_max_rel_diff(isolated, chained), 0.0);
}

TEST(KernelPipeline, ChainMovesStrictlyFewerBytes) {
  ChainSetup s(16, 64, 8);
  accel::PackedElems isolated = s.base;
  accel::PackedElems chained = s.base;
  const auto iso = run_chain(s, isolated, /*fused=*/false);
  const auto fus = run_chain(s, chained, /*fused=*/true);

  EXPECT_LT(fus.totals.total_dma_bytes(), iso.totals.total_dma_bytes());
  EXPECT_GT(fus.totals.dma_reused_bytes, 0u);
  EXPECT_GT(fus.reuse_fraction(), 0.0);
  EXPECT_LE(fus.totals.ldm_peak_bytes, sw::kLdmBytes);
}

TEST(KernelPipeline, PhaseBreakdownCoversKernelsAndWriteback) {
  ChainSetup s(8, 32, 4);
  accel::PackedElems p = s.base;
  const auto stats = run_chain(s, p, /*fused=*/true);

  std::vector<std::string> names;
  for (const auto& ph : stats.phases) names.push_back(ph.name);
  const std::vector<std::string> want{"euler_step", "hypervis_dp2",
                                      "biharmonic_dp3d", "vertical_remap",
                                      "writeback"};
  EXPECT_EQ(names, want);
  double phase_seconds = 0.0;
  for (const auto& ph : stats.phases) {
    EXPECT_GT(ph.cycles, 0.0) << ph.name;
    phase_seconds += ph.seconds;
  }
  // Phases partition the fused launch (modulo spawn overhead).
  EXPECT_LE(phase_seconds, stats.seconds);
}

TEST(KernelPipeline, FreshGroupStartsCold) {
  ChainSetup s(8, 32, 4);
  accel::PackedElems p = s.base;
  sw::CoreGroup cg;
  accel::EulerKernel k(p, s.derived, s.euler_cfg);
  const auto stats = accel::KernelPipeline({&k}).run(cg);
  EXPECT_EQ(stats.totals.dma_reused_bytes, 0u);
  EXPECT_GT(stats.totals.dma_cold_bytes, 0u);
}

TEST(KernelPipeline, PinnedDvvPersistsAcrossLaunches) {
  ChainSetup s(8, 32, 4);
  accel::PackedElems p = s.base;
  sw::CoreGroup cg;
  accel::EulerKernel k(p, s.derived, s.euler_cfg);
  (void)accel::KernelPipeline({&k}).run(cg);
  const auto second = accel::KernelPipeline({&k}).run(cg);
  // The GLL derivative matrix stays pinned in each CPE's LDM between
  // launches on the same group, so the second launch opens with hits.
  EXPECT_GT(second.totals.dma_reused_bytes, 0u);
}

TEST(KernelPipeline, FusedPhysicsSuiteReusesResidentColumns) {
  auto p = accel::PackedColumns::synthetic(96, 32);
  accel::PhysicsAccConfig cfg;
  sw::CoreGroup cg;
  const auto stats = accel::physics_athread(cg, p, cfg);
  // Scheme 1 stages each column's six arrays; schemes 2-4 run out of
  // LDM, so well over half the requested bytes never touch the DMA.
  EXPECT_GT(stats.reuse_fraction(), 0.5);
}

double state_max_rel_diff(const homme::State& a, const homme::State& b) {
  auto field_diff = [](std::span<const double> x,
                       std::span<const double> y) {
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double scale = std::max({std::abs(x[i]), std::abs(y[i]), 1e-30});
      worst = std::max(worst, std::abs(x[i] - y[i]) / scale);
    }
    return worst;
  };
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    worst = std::max(worst, field_diff(a[e].u1.span(), b[e].u1.span()));
    worst = std::max(worst, field_diff(a[e].u2.span(), b[e].u2.span()));
    worst = std::max(worst, field_diff(a[e].T.span(), b[e].T.span()));
    worst = std::max(worst, field_diff(a[e].dp.span(), b[e].dp.span()));
    worst = std::max(worst, field_diff(a[e].qdp.span(), b[e].qdp.span()));
  }
  return worst;
}

TEST(PipelineAccelerator, RemapMatchesHostRemap) {
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 3;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::State host = homme::baroclinic(mesh, d);
  homme::State offload = host;

  homme::vertical_remap(mesh, d, host);
  accel::PipelineAccelerator pa(mesh, d);
  pa.vertical_remap(offload);

  // The CPE port reassociates the column pressure scan, so agreement is
  // to rounding, not bitwise.
  EXPECT_LT(state_max_rel_diff(host, offload), 1e-9);
  EXPECT_EQ(pa.launches(), 1);
  EXPECT_GT(pa.last_stats().totals.total_dma_bytes(), 0u);
}

TEST(PipelineAccelerator, AttachedDycoreTracksHostDycore) {
  homme::Dims d;
  d.nlev = 16;
  d.qsize = 2;
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::DycoreConfig cfg;
  cfg.remap_freq = 3;

  homme::State host_s = homme::baroclinic(mesh, d);
  homme::State accel_s = host_s;

  homme::Dycore host_dc(mesh, d, cfg);
  homme::Dycore accel_dc(mesh, d, cfg);
  accel::PipelineAccelerator pa(mesh, d);
  accel_dc.attach_accelerator(&pa);

  host_dc.run(host_s, 3);
  accel_dc.run(accel_s, 3);

  EXPECT_EQ(pa.launches(), 1);  // remap_freq=3: one remap in 3 steps
  EXPECT_LT(state_max_rel_diff(host_s, accel_s), 1e-8);
}

}  // namespace

namespace {

// A fault plan counts ops per CPE id, and CPE ids repeat across core
// groups: if the shards of one launch ran concurrently, which group's
// CPE 0 issued "DMA number N" would depend on thread timing. With a plan
// attached the shards run in shard order, so a seeded plan on a 4-group
// session fires the same faults, falls back the same launches and ends
// in the same state on every run.
struct FaultedRun {
  std::vector<sw::FaultPlan::Fired> fired;
  int fallbacks = 0;
  std::uint64_t fallback_events = 0;  ///< accel:host_fallback, if traced
  std::uint32_t digest = 0;
};

FaultedRun run_faulted_session(bool trace = false) {
  sw::FaultPlan plan(/*seed=*/2027);
  plan.inject({sw::FaultKind::kDmaFail, /*target=*/-1, /*op_index=*/3});
  plan.inject({sw::FaultKind::kDmaFail, /*target=*/1, /*op_index=*/16});
  plan.inject({sw::FaultKind::kCpeDeath, /*target=*/2, /*op_index=*/30});
  model::Session s(model::SessionConfig{}
                       .with_ne(2)
                       .with_levels(4, 2)
                       .with_remap_freq(1)
                       .with_backend(model::SessionConfig::Backend::kPipeline)
                       .with_core_groups(4)
                       .with_faults(&plan)
                       .with_trace(trace));
  s.run(4);
  FaultedRun r;
  r.fired = plan.fired();
  r.fallbacks = s.fallbacks();
  r.fallback_events = obs::phase_count(s.summary(), "accel:host_fallback");
  r.digest = model::state_digest(s.state(), s.step_count());
  return r;
}

TEST(PipelineAccelerator, FaultedShardedLaunchesAreDeterministic) {
  // Only the first run is traced: tracing must not perturb the rest.
  const FaultedRun first = run_faulted_session(/*trace=*/true);
  // Every armed fault fires, each in its own launch.
  ASSERT_EQ(first.fired.size(), 3u);
  EXPECT_EQ(first.fallbacks, 3);
  // A fallback is otherwise invisible in a report: the trace counts it.
  EXPECT_EQ(first.fallback_events, 3u);
  for (int run = 1; run < 20; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const FaultedRun r = run_faulted_session();
    ASSERT_EQ(r.fired.size(), first.fired.size());
    for (std::size_t i = 0; i < r.fired.size(); ++i) {
      EXPECT_EQ(r.fired[i].kind, first.fired[i].kind);
      EXPECT_EQ(r.fired[i].target, first.fired[i].target);
      EXPECT_EQ(r.fired[i].op_index, first.fired[i].op_index);
      EXPECT_EQ(r.fired[i].bytes, first.fired[i].bytes);
    }
    EXPECT_EQ(r.fallbacks, first.fallbacks);
    EXPECT_EQ(r.digest, first.digest);
  }
}

/// Worst per-field difference relative to that field's largest magnitude:
/// a host-redone remap differs from the offloaded one only by rounding,
/// which a pointwise ratio would blow up wherever a wind crosses zero.
double state_max_normwise_diff(const homme::State& a, const homme::State& b) {
  auto field_diff = [&](auto field) {
    double diff = 0.0;
    double scale = 1e-300;
    for (std::size_t e = 0; e < a.size(); ++e) {
      const auto x = field(a[e]).span();
      const auto y = field(b[e]).span();
      for (std::size_t i = 0; i < x.size(); ++i) {
        diff = std::max(diff, std::abs(x[i] - y[i]));
        scale = std::max(scale, std::abs(x[i]));
      }
    }
    return diff / scale;
  };
  return std::max({field_diff([](const auto& el) -> auto& { return el.u1; }),
                   field_diff([](const auto& el) -> auto& { return el.u2; }),
                   field_diff([](const auto& el) -> auto& { return el.T; }),
                   field_diff([](const auto& el) -> auto& { return el.dp; }),
                   field_diff([](const auto& el) -> auto& { return el.qdp; })});
}

struct SweptRun {
  std::size_t fired = 0;
  int fallbacks = 0;
  homme::State state;
  std::uint32_t digest = 0;
  /// A step ended with the fault fired and no fallback: the remap
  /// accepted a corrupted transfer and the run went on with its numbers.
  bool accepted_fault = false;
  /// What a homme::RemapError that escaped Session::step said.
  std::string remap_error;
};

SweptRun run_pipeline_session(int core_groups, sw::FaultPlan* plan) {
  model::Session s(model::SessionConfig{}
                       .with_ne(2)
                       .with_levels(4, 1)
                       .with_remap_freq(1)
                       .with_backend(model::SessionConfig::Backend::kPipeline)
                       .with_core_groups(core_groups)
                       .with_faults(plan));
  SweptRun r;
  try {
    for (int step = 0; step < 2; ++step) {
      s.step();
      if (plan != nullptr && plan->fired_count() > 0 && s.fallbacks() == 0) {
        r.accepted_fault = true;
      }
    }
  } catch (const homme::RemapError& e) {
    r.remap_error = e.what();
  }
  r.fired = plan != nullptr ? plan->fired_count() : 0;
  r.fallbacks = s.fallbacks();
  r.state = s.state();
  r.digest = model::state_digest(s.state(), s.step_count());
  return r;
}

// Every DMA or CPE op a remap launch issues, faulted in turn: the launch
// either never sees the fault (clean digest) or is discarded and redone
// on the host (remap rounding only). A fault surfacing while a transient
// lease writes back must reach the fallback too, not std::terminate, and
// a corrupted transfer the remap rejects (homme::RemapError) falls back
// like a failed one instead of escaping Session::step.
//
// Silent corruption is not detected yet: a flipped bit the remap accepts
// leaves the run going on corrupted numbers. When those poison a later
// step's columns, the host redo rejects them too, and that typed error is
// the only escape allowed.
TEST(PipelineAccelerator, EveryFaultedOpFallsBackOrLeavesTheRunClean) {
  for (int cgs : {1, 4}) {
    const SweptRun clean = run_pipeline_session(cgs, nullptr);
    for (sw::FaultKind kind :
         {sw::FaultKind::kDmaFail, sw::FaultKind::kCpeDeath,
          sw::FaultKind::kDmaCorrupt}) {
      int recovered = 0;
      for (int op = 1; op <= 64; ++op) {
        SCOPED_TRACE(std::to_string(cgs) + " CGs, kind " +
                     std::to_string(static_cast<int>(kind)) + ", op " +
                     std::to_string(op));
        sw::FaultPlan plan(/*seed=*/4242);
        plan.inject({kind, /*target=*/0, /*op_index=*/op});
        SweptRun r;
        ASSERT_NO_THROW(r = run_pipeline_session(cgs, &plan));
        if (!r.remap_error.empty()) {
          EXPECT_EQ(kind, sw::FaultKind::kDmaCorrupt) << r.remap_error;
          EXPECT_TRUE(r.accepted_fault) << r.remap_error;
          EXPECT_GE(r.fallbacks, 1) << r.remap_error;
        } else if (r.fired == 0) {
          EXPECT_EQ(r.fallbacks, 0);
          EXPECT_EQ(r.digest, clean.digest);
        } else if (r.accepted_fault) {
          EXPECT_EQ(kind, sw::FaultKind::kDmaCorrupt);
        } else {
          EXPECT_GE(r.fallbacks, 1);
          EXPECT_LT(state_max_normwise_diff(clean.state, r.state), 1e-9);
          ++recovered;
        }
      }
      EXPECT_GT(recovered, 0) << cgs << " CGs, kind "
                              << static_cast<int>(kind);
    }
  }
}

}  // namespace
