// model::Session facade: config builder validation, bit-identity of a
// Session against the raw homme::Dycore it subsumes, shared-bundle
// construction, save/restore round trips, the accelerator backend, and
// every feature at N ranks (physics, delta checkpoints, restore at a
// different rank count, a failed collective step).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "model/session.hpp"
#include "sw/fault.hpp"

namespace {

using model::ConfigError;
using model::MeshBundle;
using model::Session;
using model::SessionConfig;

/// Exact double equality over every field of every element.
void expect_states_equal(const homme::State& a, const homme::State& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].u1, b[e].u1) << "u1 differs at element " << e;
    EXPECT_EQ(a[e].u2, b[e].u2) << "u2 differs at element " << e;
    EXPECT_EQ(a[e].T, b[e].T) << "T differs at element " << e;
    EXPECT_EQ(a[e].dp, b[e].dp) << "dp differs at element " << e;
    EXPECT_EQ(a[e].qdp, b[e].qdp) << "qdp differs at element " << e;
    EXPECT_EQ(a[e].phis, b[e].phis) << "phis differs at element " << e;
  }
}

/// Remove a checkpoint chain: "<base>.full" and its "<base>.dN" deltas.
void remove_chain(const std::string& base) {
  std::remove((base + ".full").c_str());
  for (int k = 1; std::remove((base + ".d" + std::to_string(k)).c_str()) == 0;
       ++k) {
  }
}

/// Near-equality: the distributed DSS reassociates node sums across
/// ranks, so parallel-vs-sequential agreement is 1e-9 relative, not
/// bitwise (same bound the homme parallel tests use).
void expect_states_near(const homme::State& a, const homme::State& b) {
  ASSERT_EQ(a.size(), b.size());
  auto near = [](const homme::Chunk& x, const homme::Chunk& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], y[i], 1e-9 * (std::abs(y[i]) + 1.0));
    }
  };
  for (std::size_t e = 0; e < a.size(); ++e) {
    near(a[e].u1, b[e].u1);
    near(a[e].u2, b[e].u2);
    near(a[e].T, b[e].T);
    near(a[e].dp, b[e].dp);
    near(a[e].qdp, b[e].qdp);
  }
}

TEST(SessionConfig, BuilderComposes) {
  const SessionConfig cfg = SessionConfig{}
                                .with_ne(6)
                                .with_levels(16, 3)
                                .with_dt(120.0)
                                .with_ranks(4)
                                .with_backend(SessionConfig::Backend::kPipeline)
                                .with_monitor();
  EXPECT_EQ(cfg.ne, 6);
  EXPECT_EQ(cfg.nlev, 16);
  EXPECT_EQ(cfg.qsize, 3);
  EXPECT_EQ(cfg.dt, 120.0);
  EXPECT_EQ(cfg.nranks, 4);
  EXPECT_EQ(cfg.backend, SessionConfig::Backend::kPipeline);
  EXPECT_TRUE(cfg.monitor);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.dims().nlev, 16);
  EXPECT_EQ(cfg.dycore_config().dt, 120.0);
}

TEST(SessionConfig, RejectsUnrealizableSettings) {
  EXPECT_THROW(SessionConfig{}.with_ne(0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_radius(-1.0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(0, 2).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, -1).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_dt(-10.0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_remap_freq(0).validate(), ConfigError);
  EXPECT_THROW(SessionConfig{}.with_ranks(0).validate(), ConfigError);
  // More ranks than elements: ne1 has 6 elements.
  EXPECT_THROW(SessionConfig{}.with_ne(1).with_ranks(7).validate(),
               ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, 0).with_moist().validate(),
               ConfigError);
  EXPECT_THROW(SessionConfig{}.with_levels(8, 0).with_physics().validate(),
               ConfigError);
  // Checkpoint cadence without a base path, a negative cadence or a
  // negative full-image interval.
  EXPECT_THROW(SessionConfig{}.with_delta_checkpoints("", 5, 4).validate(),
               ConfigError);
  EXPECT_THROW(
      SessionConfig{}.with_delta_checkpoints("/tmp/ck", -1, 4).validate(),
      ConfigError);
  EXPECT_THROW(
      SessionConfig{}.with_delta_checkpoints("/tmp/ck", 5, -1).validate(),
      ConfigError);
  EXPECT_NO_THROW(
      SessionConfig{}.with_delta_checkpoints("/tmp/ck", 5, 4).validate());
  // The Session constructor runs the same validation.
  EXPECT_THROW(Session(SessionConfig{}.with_ne(0)), ConfigError);
}

TEST(SessionConfig, RejectsIncompatibleBundle) {
  const auto bundle = MeshBundle::build(2, 1);
  EXPECT_TRUE(bundle->compatible(SessionConfig{}.with_ne(2)));
  EXPECT_FALSE(bundle->compatible(SessionConfig{}.with_ne(4)));
  EXPECT_THROW(Session(SessionConfig{}.with_ne(4), bundle), ConfigError);
  EXPECT_THROW(Session(SessionConfig{}.with_ne(2).with_ranks(2), bundle),
               ConfigError);
}

// The facade must not change the numbers: a Session on the host backend
// is the raw Dycore it wraps, bit for bit, including the remap cadence.
TEST(Session, BitIdenticalToRawDycore) {
  const int kSteps = 5;
  const SessionConfig cfg = SessionConfig{}.with_ne(4).with_levels(8, 2);

  Session session(cfg);
  session.run(kSteps);

  auto mesh = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  const homme::Dims d = cfg.dims();
  homme::State raw = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, raw);
  homme::Dycore dycore(mesh, d, cfg.dycore_config());
  for (int i = 0; i < kSteps; ++i) dycore.step(raw);

  EXPECT_EQ(session.step_count(), kSteps);
  EXPECT_EQ(session.dt(), dycore.dt());
  expect_states_equal(session.state(), raw);
}

// Parallel decomposition is a config value, not a different answer.
TEST(Session, ParallelMatchesSequential) {
  const int kSteps = 3;
  const SessionConfig base = SessionConfig{}.with_ne(2).with_levels(8, 2);

  Session seq(base);
  seq.run(kSteps);

  Session par(SessionConfig{base}.with_ranks(3));
  par.run(kSteps);

  expect_states_near(par.state(), seq.state());
}

// The pipeline backend's remap reassociates the column pressure scan on
// the simulated CPEs, so backends agree to rounding (the same bound the
// accel pipeline tests use), and no fault means no host fallback.
TEST(Session, PipelineBackendMatchesHost) {
  const int kSteps = 4;  // remap_freq 3: crosses a remap step
  const SessionConfig base = SessionConfig{}.with_ne(2).with_levels(8, 2);

  Session host(base);
  host.run(kSteps);

  Session pipe(
      SessionConfig{base}.with_backend(SessionConfig::Backend::kPipeline));
  pipe.run(kSteps);

  EXPECT_EQ(pipe.fallbacks(), 0);
  ASSERT_NE(pipe.accelerator(), nullptr);
  EXPECT_EQ(host.accelerator(), nullptr);
  expect_states_near(pipe.state(), host.state());
}

TEST(Session, SharedBundleIsSharedAndCheaper) {
  const auto bundle = MeshBundle::build(4, 1);
  EXPECT_GT(bundle->bytes(), 0u);

  const SessionConfig cfg = SessionConfig{}.with_ne(4).with_levels(4, 1);
  Session a(cfg, bundle);
  Session b(cfg, bundle);
  EXPECT_EQ(a.bundle_ptr().get(), b.bundle_ptr().get());
  EXPECT_EQ(&a.mesh(), &b.mesh());

  a.step();
  b.step();
  expect_states_equal(a.state(), b.state());
}

TEST(Session, SaveRestoreRoundTripsBitIdentically) {
  const SessionConfig plain =
      SessionConfig{}.with_ne(2).with_levels(8, 2).with_remap_freq(3);

  // At N ranks the session saves and restores its one global state.
  for (int nranks : {1, 2}) {
    SCOPED_TRACE(std::to_string(nranks) + " ranks");
    const std::string base = ::testing::TempDir() + "test_model_session_r" +
                             std::to_string(nranks) + ".ck";
    const SessionConfig cfg =
        SessionConfig{plain}.with_ranks(nranks).with_delta_checkpoints(
            base, /*freq=*/0, /*full_interval=*/4);

    homme::State gold;
    {
      Session s(cfg);
      s.run(4);  // step 4: mid remap cycle, the cadence must survive restore
      ASSERT_TRUE(s.checkpoint_now());
      s.run(3);
      gold = s.state();
    }  // destruction drains the async writer: the save is on disk

    Session t(cfg);
    t.restore();
    EXPECT_EQ(t.step_count(), 4);
    t.run(3);
    expect_states_equal(t.state(), gold);
    remove_chain(base);
  }
}

// -- features at any rank count ----------------------------------------------

// Physics is column-local on the global state, so N ranks differ from one
// rank only by the dynamics' DSS reassociation.
TEST(SessionRanks, PhysicsAtTwoRanksMatchesOneRank) {
  const int kSteps = 4;  // crosses a remap
  const SessionConfig base = SessionConfig{}
                                 .with_ne(2)
                                 .with_levels(8, 2)
                                 .with_moist()
                                 .with_physics();
  Session one(base);
  one.run(kSteps);
  Session two(SessionConfig{base}.with_ranks(2));
  two.run(kSteps);

  EXPECT_GT(one.physics_stats().mean_olr, 0.0);
  EXPECT_NEAR(two.physics_stats().mean_olr, one.physics_stats().mean_olr,
              1e-9 * one.physics_stats().mean_olr);
  expect_states_near(two.state(), one.state());
}

TEST(SessionRanks, DeltaCheckpointsAtTwoRanksRestoreBitIdentically) {
  const std::string base = ::testing::TempDir() + "session_delta_par.ck";
  const SessionConfig plain =
      SessionConfig{}.with_ne(2).with_levels(4, 2).with_ranks(2);
  const SessionConfig cfg =
      SessionConfig{plain}.with_delta_checkpoints(base, 1, 3);
  {
    Session s(cfg);
    s.run(5);  // five saves: a full image every third, deltas between
  }  // destruction drains the async writer: every save is on disk

  Session straight(plain);
  straight.run(5);
  Session t(cfg);
  t.restore();
  EXPECT_EQ(t.step_count(), 5);
  expect_states_equal(t.state(), straight.state());

  // And it keeps stepping exactly like an uninterrupted run.
  straight.run(2);
  t.run(2);
  expect_states_equal(t.state(), straight.state());
}

// A checkpoint holds the global state, so the rank count is free to
// change at restart.
TEST(SessionRanks, CheckpointAtTwoRanksRestoresAtOneAndThreeRanks) {
  const std::string base = ::testing::TempDir() + "session_reshape.ck";
  const SessionConfig plain =
      SessionConfig{}.with_ne(2).with_levels(8, 2).with_remap_freq(3);
  const SessionConfig cfg =
      SessionConfig{plain}.with_delta_checkpoints(base, 0, 4);

  Session straight(SessionConfig{plain}.with_ranks(2));
  straight.run(7);

  {
    Session saver(SessionConfig{cfg}.with_ranks(2));
    saver.run(4);  // mid remap cycle
    ASSERT_TRUE(saver.checkpoint_now());
  }  // destruction drains the async writer

  for (int nranks : {1, 3}) {
    SCOPED_TRACE("restore at " + std::to_string(nranks) + " ranks");
    Session resumed(SessionConfig{cfg}.with_ranks(nranks));
    resumed.restore();
    EXPECT_EQ(resumed.step_count(), 4);
    resumed.run(3);
    expect_states_near(resumed.state(), straight.state());
  }
  remove_chain(base);
}

// Ranks step COW views of the global state; a collective step that fails
// is never scattered back, and the next step picks up the remap cadence
// where the last good one left it.
TEST(SessionRanks, FailedStepLeavesTheLastGoodState) {
  const SessionConfig cfg = SessionConfig{}
                                .with_ne(2)
                                .with_levels(4, 2)
                                .with_remap_freq(2)
                                .with_ranks(2)
                                .with_watchdog(0.2);
  // Each step sends 33 DSS messages per rank here. The truncation hits
  // rank 0's last send of step 2: rank 1's receive refuses it while
  // rank 0 finishes the step, so the two drivers' step counts disagree
  // until the session realigns them.
  sw::FaultPlan plan(7);
  plan.inject({sw::FaultKind::kMsgTruncate, /*target=*/0, /*op_index=*/65});
  Session faulty(SessionConfig{cfg}.with_faults(&plan));
  faulty.step();
  EXPECT_EQ(plan.fired_count(), 0u);
  const homme::State good = faulty.state();
  EXPECT_THROW(faulty.step(), net::CommFault);
  EXPECT_EQ(plan.fired_count(), 1u);
  EXPECT_EQ(faulty.step_count(), 1);
  expect_states_equal(faulty.state(), good);

  Session clean(cfg);
  clean.run(3);  // the retried run crosses the step-2 remap
  faulty.run(2);
  expect_states_equal(faulty.state(), clean.state());
}

TEST(Session, CheckpointCadenceWritesDuringRun) {
  const std::string base =
      ::testing::TempDir() + "test_model_session_cadence.ck";
  const SessionConfig cfg = SessionConfig{}
                                .with_ne(2)
                                .with_levels(4, 1)
                                .with_delta_checkpoints(base, 2, 4);
  homme::State gold;
  {
    Session s(cfg);
    s.run(4);
    gold = s.state();
  }  // destruction drains the async writer

  // The step-4 checkpoint is on disk; a fresh session resumes from it.
  Session t(cfg);
  ASSERT_TRUE(t.try_resume());
  EXPECT_EQ(t.step_count(), 4);
  expect_states_equal(t.state(), gold);
  remove_chain(base);

  // Without a checkpoint_base there is nothing to save or resume from.
  Session none(SessionConfig{}.with_ne(2).with_levels(4, 1));
  EXPECT_FALSE(none.checkpoint_now());
  EXPECT_FALSE(none.try_resume());
  EXPECT_THROW(none.restore(), ConfigError);
}

TEST(Session, MonitorThrowsModelBlowup) {
  // An absurd dt makes the very first step non-finite; the monitor must
  // surface that as ModelBlowup instead of silently marching NaNs.
  Session s(SessionConfig{}
                .with_ne(2)
                .with_levels(4, 1)
                .with_dt(1.0e9)
                .with_monitor());
  EXPECT_THROW(s.run(10), model::ModelBlowup);
}

TEST(Session, DiagnosticsAndTracerWork) {
  Session s(SessionConfig{}
                .with_ne(2)
                .with_levels(4, 1)
                .with_trace(true, obs::ClockDomain::kVirtual));
  s.run(2);
  const homme::Diagnostics d = s.diagnose();
  EXPECT_GT(d.dry_mass, 0.0);
  EXPECT_GT(d.min_dp, 0.0);
  const obs::Summary sum = s.summary();
  EXPECT_GT(obs::phase_count(sum, "dyn:step"), 0u);
}

}  // namespace
