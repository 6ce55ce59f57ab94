// The dycore at N ranks: rank r's driver steps its share of an SFC
// partition with every DSS through bndry_exchangev, and the assembled
// result must match the whole-mesh driver to DSS reassociation.

#include "homme/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "homme/euler.hpp"
#include "homme/init.hpp"
#include "homme/local_state.hpp"

namespace {

using homme::BndryExchange;
using homme::Dims;
using homme::State;

/// Run the dycore for `steps` over `nranks` ranks and return the
/// assembled global state.
State run_parallel(const mesh::CubedSphere& m, const Dims& d,
                   const State& initial, int nranks, int steps,
                   BndryExchange::Mode mode) {
  auto part = mesh::Partition::build(m, nranks);
  auto plan = mesh::CommPlan::build(m, part);
  std::vector<State> locals;
  for (int r = 0; r < nranks; ++r) {
    locals.push_back(homme::gather_local(part, r, initial));
  }
  net::Cluster cluster(nranks);
  cluster.run([&](net::Rank& r) {
    homme::Dycore dy(m, part, plan, d, homme::DycoreConfig{}, r.rank(),
                     mode);
    for (int s = 0; s < steps; ++s) {
      dy.step(r, locals[static_cast<std::size_t>(r.rank())]);
    }
  });
  State global = initial;
  for (int r = 0; r < nranks; ++r) {
    homme::scatter_local(part, r, locals[static_cast<std::size_t>(r)],
                         global);
  }
  return global;
}

double max_rel_state_diff(const Dims& d, const State& a, const State& b) {
  double worst = 0.0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      for (auto [x, y] : {std::pair{a[e].u1[f], b[e].u1[f]},
                          std::pair{a[e].u2[f], b[e].u2[f]},
                          std::pair{a[e].T[f], b[e].T[f]},
                          std::pair{a[e].dp[f], b[e].dp[f]}}) {
        const double scale = std::max({std::abs(x), std::abs(y), 1.0});
        worst = std::max(worst, std::abs(x - y) / scale);
      }
    }
  }
  return worst;
}

struct ParCase {
  int nranks;
  BndryExchange::Mode mode;
};

class DistributedDycore : public ::testing::TestWithParam<ParCase> {};

TEST_P(DistributedDycore, MatchesWholeMeshDycore) {
  const auto p = GetParam();
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 1;
  auto initial = homme::baroclinic(m, d, 25.0, 295.0, 4.0);
  homme::init_tracers(m, d, initial);

  // Whole-mesh reference.
  State seq = initial;
  homme::Dycore dycore(m, d, homme::DycoreConfig{});
  const int steps = 4;
  dycore.run(seq, steps);

  State par = run_parallel(m, d, initial, p.nranks, steps, p.mode);

  // Distributed DSS reassociates node sums across ranks: tolerance covers
  // the accumulated drift over 4 steps, nothing more.
  EXPECT_LT(max_rel_state_diff(d, seq, par), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, DistributedDycore,
    ::testing::Values(ParCase{1, BndryExchange::Mode::kOverlap},
                      ParCase{4, BndryExchange::Mode::kOriginal},
                      ParCase{4, BndryExchange::Mode::kOverlap},
                      ParCase{7, BndryExchange::Mode::kOriginal},
                      ParCase{7, BndryExchange::Mode::kOverlap}));

TEST(DistributedDycoreMass, ConservesMassAcrossRanks) {
  auto m = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d;
  d.nlev = 4;
  d.qsize = 1;
  auto initial = homme::solid_body_rotation(m, d, 20.0);
  homme::init_tracers(m, d, initial);

  const State global =
      run_parallel(m, d, initial, 4, 5, BndryExchange::Mode::kOverlap);
  const homme::Dycore whole(m, d, homme::DycoreConfig{});
  const double mass0 = whole.diagnose(initial).dry_mass;
  const double mass1 = whole.diagnose(global).dry_mass;
  EXPECT_NEAR(mass1, mass0, 1e-9 * mass0);

  const double tracer0 = homme::tracer_mass(m, d, initial, 0);
  const double tracer1 = homme::tracer_mass(m, d, global, 0);
  EXPECT_NEAR(tracer1, tracer0, 1e-9 * tracer0);
}

TEST(RankDycore, ResolvesLikeTheWholeMeshAndNeedsItsRank) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  Dims d;
  d.nlev = 3;
  d.qsize = 0;
  auto part = mesh::Partition::build(m, 3);
  auto plan = mesh::CommPlan::build(m, part);
  const homme::Dycore whole(m, d, homme::DycoreConfig{});
  homme::Dycore rank1(m, part, plan, d, homme::DycoreConfig{}, 1);
  // Auto dt and nu resolve from the mesh, not from the rank's share.
  EXPECT_EQ(rank1.dt(), whole.dt());
  EXPECT_EQ(rank1.nu(), whole.nu());

  // Stepping a rank's share outside a collective step has no endpoint
  // for its DSS: a typed error, not a hang.
  State local = homme::gather_local(part, 1, homme::baroclinic(m, d));
  EXPECT_THROW(rank1.step(local), std::logic_error);
}

}  // namespace
