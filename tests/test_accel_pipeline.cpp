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
  std::uint32_t digest = 0;
};

FaultedRun run_faulted_session() {
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
                       .with_faults(&plan));
  s.run(4);
  FaultedRun r;
  r.fired = plan.fired();
  r.fallbacks = s.fallbacks();
  r.digest = model::state_digest(s.state(), s.step_count());
  return r;
}

TEST(PipelineAccelerator, FaultedShardedLaunchesAreDeterministic) {
  const FaultedRun first = run_faulted_session();
  // Every armed fault fires, each in its own launch.
  ASSERT_EQ(first.fired.size(), 3u);
  EXPECT_EQ(first.fallbacks, 3);
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

}  // namespace
