#include "perf/machine_model.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using perf::MachineModel;
using perf::Version;

/// One calibration shared across tests (runs the simulator kernels once).
const MachineModel& model() {
  static const MachineModel m = MachineModel::calibrate(64, 8, 32);
  return m;
}

TEST(MachineModel, PortOrderingHolds) {
  const auto& m = model();
  EXPECT_GT(m.cost[0].seconds, m.cost[1].seconds);  // ori > openacc
  EXPECT_GT(m.cost[1].seconds, m.cost[2].seconds);  // openacc > athread
  EXPECT_GT(m.cost[2].flops, 0.0);
}

TEST(MachineModel, SypdImprovesWithEachPort) {
  const auto& m = model();
  const double ori = m.sypd(30, 1350, Version::kOriginal);
  const double acc = m.sypd(30, 1350, Version::kOpenAcc);
  const double ath = m.sypd(30, 1350, Version::kAthread);
  EXPECT_GT(acc, ori);
  EXPECT_GT(ath, acc);
  // Figure 6: OpenACC gains 1.4-1.5x at moderate scale; Athread more.
  EXPECT_GT(acc / ori, 1.1);
  EXPECT_LT(acc / ori, 2.5);
}

TEST(MachineModel, SypdAnchorsNearPaperValues) {
  const auto& m = model();
  // The two calibration anchors (ne30 athread / ne120 openacc) must come
  // back close to the paper's 21.5 and 3.4 SYPD (communication adds a
  // little on top of the anchored compute).
  EXPECT_NEAR(m.sypd(30, 5400, Version::kAthread), 21.5, 2.5);
  EXPECT_NEAR(m.sypd(120, 28800, Version::kOpenAcc), 3.4, 0.7);
}

TEST(MachineModel, SypdScalesWithProcessCount) {
  const auto& m = model();
  EXPECT_GT(m.sypd(30, 5400, Version::kAthread),
            m.sypd(30, 216, Version::kAthread));
}

TEST(MachineModel, StrongScalingEfficiencyFallsAsExpected) {
  const auto& m = model();
  // Figure 7: ne256 efficiency ~21.7% at 131072 from a 4096 base; ne1024
  // holds ~51% from an 8192 base.
  const double e256 =
      m.parallel_efficiency(256, 4096, 131072, Version::kAthread);
  const double e1024 =
      m.parallel_efficiency(1024, 8192, 131072, Version::kAthread);
  EXPECT_GT(e256, 0.08);
  EXPECT_LT(e256, 0.45);
  EXPECT_GT(e1024, 0.3);
  EXPECT_LT(e1024, 0.8);
  EXPECT_GT(e1024, e256);  // more elements per process scales better
}

TEST(MachineModel, PflopsGrowWithMachineAndAnchorHolds) {
  const auto& m = model();
  const auto small = m.dycore_step(1024, 8192, Version::kAthread);
  const auto large = m.dycore_step(1024, 131072, Version::kAthread);
  EXPECT_NEAR(small.pflops, 0.18, 0.03);  // the documented anchor
  EXPECT_GT(large.pflops, 4.0 * small.pflops);
}

TEST(MachineModel, WeakScalingReachesPetascale) {
  const auto& m = model();
  // Figure 8's headline: 650 elements/process on 155,000 processes
  // (10,075,000 cores) sustains ~3.3 PFlops.
  const auto s = m.dycore_step(4096, 155000, Version::kAthread);
  EXPECT_GT(s.pflops, 2.0);
  EXPECT_LT(s.pflops, 5.5);
}

TEST(MachineModel, OverlapReducesStepTime) {
  const auto& m = model();
  // At a scale with real interior work to hide behind (ne1024, 192
  // elements per process), overlap must claw back a visible share —
  // section 7.6 reports ~23% of large-run time in communication.
  const auto with = m.dycore_step(1024, 32768, Version::kAthread, true);
  const auto without = m.dycore_step(1024, 32768, Version::kAthread, false);
  EXPECT_LT(with.total_s, without.total_s);
  EXPECT_GT((without.total_s - with.total_s) / without.total_s, 0.05);
  // At extreme strong scaling everything is boundary; overlap can then
  // not help, but must never hurt.
  const auto w2 = m.dycore_step(256, 65536, Version::kAthread, true);
  const auto wo2 = m.dycore_step(256, 65536, Version::kAthread, false);
  EXPECT_LE(w2.total_s, wo2.total_s * (1.0 + 1e-12));
}

/// Golden calibration at the paper configuration (nlev 128, 25 tracers,
/// 32 elements) on a lone and a fully loaded processor. The simulator is
/// deterministic, so every measured figure is pinned bit for bit: a change
/// to which kernels make up a step, how each is priced, or the order the
/// costs are summed in shows up here.
struct CalibrateGolden {
  int active_cgs;
  perf::ElementCost cost[3];
  std::vector<perf::ContentionPoint> curve;
  double contention_slowdown;
  double pflops_scale;
};

void expect_golden(const CalibrateGolden& g) {
  const MachineModel m = MachineModel::calibrate(128, 25, 32, g.active_cgs);
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(m.cost[v].seconds, g.cost[v].seconds) << "cost[" << v << "]";
    EXPECT_EQ(m.cost[v].flops, g.cost[v].flops) << "cost[" << v << "]";
  }
  ASSERT_EQ(m.contention.size(), g.curve.size());
  for (std::size_t i = 0; i < g.curve.size(); ++i) {
    EXPECT_EQ(m.contention[i].active_cgs, g.curve[i].active_cgs);
    EXPECT_EQ(m.contention[i].slowdown, g.curve[i].slowdown) << i;
    EXPECT_EQ(m.contention[i].per_cg_gbytes_s, g.curve[i].per_cg_gbytes_s)
        << i;
  }
  EXPECT_EQ(m.contention_slowdown, g.contention_slowdown);
  EXPECT_EQ(m.pflops_scale, g.pflops_scale);
}

TEST(MachineModel, CalibrateGoldenOneCoreGroup) {
  expect_golden({1,
                 {{0x1.1bfe4ff4008fdp-8, 0x1.8cafcp+22},
                  {0x1.7f0a251aabe1ap-10, 0x1.8cafcp+22},
                  {0x1.fbb32b1acae64p-14, 0x1.8cafcp+22}},
                 {{1, 0x1p+0, 0x1.5d2f4f3be4957p+4}},
                 0x1p+0,
                 0x1.a30bebb5d26acp-2});
}

TEST(MachineModel, CalibrateGoldenFourCoreGroups) {
  expect_golden({4,
                 {{0x1.240bc6b34879p-8, 0x1.8cafcp+22},
                  {0x1.14f401cb76654p-9, 0x1.8cafcp+22},
                  {0x1.737341edb2a6ep-13, 0x1.8cafcp+22}},
                 {{1, 0x1p+0, 0x1.5d2f4f3be4957p+4},
                  {2, 0x1.013f0cc163ddap+0, 0x1.5b7e3b9f2cb7ap+4},
                  {3, 0x1.027e1982c7ba7p+0, 0x1.59d15513c1ee7p+4},
                  {4, 0x1.0742439a89fd6p+0, 0x1.538e852e04f6fp+4}},
                 0x1.0742439a89fd6p+0,
                 0x1.3296a796efd1bp-1});
}

TEST(MachineModel, DynDtScalesInverselyWithResolution) {
  EXPECT_DOUBLE_EQ(MachineModel::dyn_dt_seconds(30), 300.0);
  EXPECT_DOUBLE_EQ(MachineModel::dyn_dt_seconds(120), 75.0);
}

}  // namespace
