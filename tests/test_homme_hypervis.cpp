// Hyperviscosity runs as one batched sweep over every field it dissipates.
// Its oracle is the per-field sequence it replaced, kept below as it was
// (one scalar field at a time through its own Laplacians and DSS calls):
// on a stepped moist aquaplanet state, every kernel and the dycore's
// combined call must match it bit for bit, on the whole mesh and at two
// ranks in both bndry_exchangev modes.

#include "homme/hypervis.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "homme/driver.hpp"
#include "homme/dss.hpp"
#include "homme/exchange.hpp"
#include "homme/host_pool.hpp"
#include "homme/local_state.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"
#include "model/session.hpp"
#include "net/mini_mpi.hpp"
#include "scenario/registry.hpp"

namespace oracle {

using homme::cart_to_contra;
using homme::contra_to_cart;
using homme::ElementState;
using homme::Exchange;
using homme::fidx;
using homme::laplace_sphere_wk;
using homme::parallel_for;
using homme::ScratchArena;
using homme::State;
using homme::vpack;
using mesh::kNpp;

// --- The per-field sequence, as src/homme/hypervis.cpp had it. Changed
// only where the API moved: Exchange::dss_scratch() lost its level count
// (the DSS accumulator is per thread now) and hypervis_dp1 takes the
// exchange, as its siblings do.

/// Laplacian of a multi-level scalar field into out (no DSS).
void laplacian_field(const Exchange& ex, int nlev,
                     std::span<double* const> field,
                     std::span<double* const> out) {
  parallel_for(static_cast<std::size_t>(ex.nlocal()), [&](std::size_t le) {
    const auto& g = ex.geom(static_cast<int>(le));
    for (int lev = 0; lev < nlev; ++lev) {
      laplace_sphere_wk(g, field[le] + fidx(lev, 0), out[le] + fidx(lev, 0));
    }
  });
}

/// Workspace: per-element field set carved from the scratch arena — one
/// flat block of n*fs doubles plus a pointer table into it.
struct ArenaFields {
  std::span<double*> ptrs;
  ArenaFields(ScratchArena& a, int n, std::size_t fs) {
    std::span<double> flat = a.alloc_zero(static_cast<std::size_t>(n) * fs);
    ptrs = a.alloc_ptrs(static_cast<std::size_t>(n));
    for (int le = 0; le < n; ++le) {
      ptrs[static_cast<std::size_t>(le)] =
          flat.data() + static_cast<std::size_t>(le) * fs;
    }
  }
};

/// y[le][:] += coef * x[le][:] over every element, vectorized.
void axpy_fields(int n, std::size_t fs, double coef,
                 std::span<double* const> x, std::span<double* const> y) {
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t le) {
    const double* xe = x[le];
    double* ye = y[le];
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (vpack::load(ye + f) + coef * vpack::load(xe + f)).store(ye + f);
    }
  });
}

/// Rotate the wind of every element to Cartesian components.
void wind_to_cart(const Exchange& ex, const homme::Dims& d, const State& s,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z) {
  parallel_for(static_cast<std::size_t>(ex.nlocal()), [&](std::size_t sle) {
    const auto& g = ex.geom(static_cast<int>(sle));
    for (int lev = 0; lev < d.nlev; ++lev) {
      contra_to_cart(g, s[sle].u1.data() + fidx(lev, 0),
                     s[sle].u2.data() + fidx(lev, 0), x[sle] + fidx(lev, 0),
                     y[sle] + fidx(lev, 0), z[sle] + fidx(lev, 0));
    }
  });
}

void cart_to_wind(const Exchange& ex, const homme::Dims& d,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z, State& s) {
  parallel_for(static_cast<std::size_t>(ex.nlocal()), [&](std::size_t sle) {
    const auto& g = ex.geom(static_cast<int>(sle));
    std::span<double> u1 = s[sle].u1.mutable_span();
    std::span<double> u2 = s[sle].u2.mutable_span();
    for (int lev = 0; lev < d.nlev; ++lev) {
      cart_to_contra(g, x[sle] + fidx(lev, 0), y[sle] + fidx(lev, 0),
                     z[sle] + fidx(lev, 0), u1.data() + fidx(lev, 0),
                     u2.data() + fidx(lev, 0));
    }
  });
}

void reserve(ScratchArena& a, const Exchange& ex, std::size_t fs,
             int nfields) {
  const std::size_t pneed = static_cast<std::size_t>(nfields) *
                            static_cast<std::size_t>(ex.nlocal());
  const std::size_t need = pneed * fs + ex.dss_scratch();
  if (a.capacity() < need || a.ptr_capacity() < pneed) {
    a.require(need, pneed);
  }
}

void laplacian_update(Exchange& ex, int nlev, std::span<double* const> field,
                      double coef) {
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, ex, fs, 1);
  ScratchArena::Frame frame(arena);
  ArenaFields lap(arena, ex.nlocal(), fs);
  laplacian_field(ex, nlev, field, lap.ptrs);
  axpy_fields(ex.nlocal(), fs, coef, lap.ptrs, field);
  ex.dss_levels(field, nlev);
}

/// Biharmonic: Laplacian -> DSS -> Laplacian -> DSS.
void biharmonic_scalar(Exchange& ex, int nlev, std::span<double* const> field,
                       std::span<double* const> out) {
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, ex, fs, 1);
  ScratchArena::Frame frame(arena);
  ArenaFields lap1(arena, ex.nlocal(), fs);
  laplacian_field(ex, nlev, field, lap1.ptrs);
  ex.dss_levels(lap1.ptrs, nlev);
  laplacian_field(ex, nlev, lap1.ptrs, out);
  ex.dss_levels(out, nlev);
}

void hypervis_dp1(Exchange& ex, const homme::Dims& d, State& s, double nu,
                  double dt) {
  const std::size_t fs = d.field_size();
  const int n = ex.nlocal();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, ex, fs, 4);  // ux/uy/uz + nested laplacian_update
  ScratchArena::Frame frame(arena);
  ArenaFields ux(arena, n, fs), uy(arena, n, fs), uz(arena, n, fs);
  wind_to_cart(ex, d, s, ux.ptrs, uy.ptrs, uz.ptrs);
  laplacian_update(ex, d.nlev, ux.ptrs, nu * dt);
  laplacian_update(ex, d.nlev, uy.ptrs, nu * dt);
  laplacian_update(ex, d.nlev, uz.ptrs, nu * dt);
  cart_to_wind(ex, d, ux.ptrs, uy.ptrs, uz.ptrs, s);
  auto Tp = field_ptrs(s, &ElementState::T);
  laplacian_update(ex, d.nlev, Tp, nu * dt);
}

void hypervis_dp2(Exchange& ex, const homme::Dims& d, State& s, double nu,
                  double dt) {
  const std::size_t fs = d.field_size();
  const int n = ex.nlocal();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, ex, fs, 5);  // ux/uy/uz/bi + nested biharmonic
  ScratchArena::Frame frame(arena);
  ArenaFields ux(arena, n, fs), uy(arena, n, fs), uz(arena, n, fs);
  wind_to_cart(ex, d, s, ux.ptrs, uy.ptrs, uz.ptrs);
  ArenaFields bi(arena, n, fs);
  for (std::span<double* const> comp : {ux.ptrs, uy.ptrs, uz.ptrs}) {
    biharmonic_scalar(ex, d.nlev, comp, bi.ptrs);
    axpy_fields(n, fs, -nu * dt, bi.ptrs, comp);
  }
  cart_to_wind(ex, d, ux.ptrs, uy.ptrs, uz.ptrs, s);

  auto Tp = field_ptrs(s, &ElementState::T);
  biharmonic_scalar(ex, d.nlev, Tp, bi.ptrs);
  axpy_fields(n, fs, -nu * dt, bi.ptrs, Tp);
  ex.dss_levels(Tp, d.nlev);
}

void biharmonic_dp3d(Exchange& ex, const homme::Dims& d, State& s, double nu,
                     double dt) {
  const std::size_t fs = d.field_size();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  reserve(arena, ex, fs, 2);  // bi + nested biharmonic
  ScratchArena::Frame frame(arena);
  ArenaFields bi(arena, ex.nlocal(), fs);
  auto dpp = field_ptrs(s, &ElementState::dp);
  biharmonic_scalar(ex, d.nlev, dpp, bi.ptrs);
  axpy_fields(ex.nlocal(), fs, -nu * dt, bi.ptrs, dpp);
  ex.dss_levels(dpp, d.nlev);
}

}  // namespace oracle

namespace {

using homme::BndryExchange;
using homme::Dims;
using homme::Exchange;
using homme::State;

using Kernel = std::function<void(Exchange&, const Dims&, State&, double,
                                  double)>;

struct Case {
  const char* name;
  Kernel oracle;
  Kernel sweep;
};

/// Every kernel, and the dycore's combined call against the sequence it
/// replaced (hypervis_dp2, then biharmonic_dp3d).
std::vector<Case> cases() {
  auto dp1 = [](Exchange& ex, const Dims& d, State& s, double nu,
                double dt) { homme::hypervis_dp1(ex, d, s, nu, dt); };
  auto dp2 = [](Exchange& ex, const Dims& d, State& s, double nu,
                double dt) { homme::hypervis_dp2(ex, d, s, nu, dt); };
  auto dp3d = [](Exchange& ex, const Dims& d, State& s, double nu,
                 double dt) { homme::biharmonic_dp3d(ex, d, s, nu, dt); };
  auto both = [](Exchange& ex, const Dims& d, State& s, double nu,
                 double dt) { homme::hyperviscosity(ex, d, s, nu, dt); };
  auto oracle_both = [](Exchange& ex, const Dims& d, State& s, double nu,
                        double dt) {
    oracle::hypervis_dp2(ex, d, s, nu, dt);
    oracle::biharmonic_dp3d(ex, d, s, nu, dt);
  };
  return {{"hypervis_dp1", oracle::hypervis_dp1, dp1},
          {"hypervis_dp2", oracle::hypervis_dp2, dp2},
          {"biharmonic_dp3d", oracle::biharmonic_dp3d, dp3d},
          {"hyperviscosity", oracle_both, both}};
}

/// A moist aquaplanet state two steps in (ne4/L8), with the dycore's own
/// nu and dt for it.
struct Stepped {
  std::unique_ptr<model::Session> session;
  double nu = 0.0, dt = 0.0;
};

Stepped stepped_aquaplanet() {
  const scenario::Scenario& sc = scenario::get("aquaplanet");
  scenario::Overrides ov;
  ov.ne = 4;
  ov.nlev = 8;
  ov.nranks = 1;
  Stepped st;
  st.session = sc.session(ov);
  scenario::run(sc, *st.session, 2);
  const homme::Dycore dy(st.session->mesh(), st.session->dims(),
                         st.session->config().dycore_config());
  st.nu = dy.nu();
  st.dt = dy.dt();
  return st;
}

void expect_bitwise_equal(const State& a, const State& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    for (auto [name, x, y] :
         {std::tuple{"u1", &a[e].u1, &b[e].u1},
          std::tuple{"u2", &a[e].u2, &b[e].u2},
          std::tuple{"T", &a[e].T, &b[e].T},
          std::tuple{"dp", &a[e].dp, &b[e].dp}}) {
      ASSERT_EQ(x->size(), y->size());
      ASSERT_EQ(std::memcmp(x->data(), y->data(), x->size_bytes()), 0)
          << name << " differs at element " << e;
    }
  }
}

TEST(HypervisSweep, MatchesThePerFieldSequenceOnTheWholeMesh) {
  const Stepped st = stepped_aquaplanet();
  const State& s0 = st.session->state();
  const Dims& d = st.session->dims();
  homme::MeshExchange ex(st.session->mesh());
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    State want = s0, got = s0;
    c.oracle(ex, d, want, st.nu, st.dt);
    c.sweep(ex, d, got, st.nu, st.dt);
    expect_bitwise_equal(got, want);
  }
  // The whole-mesh forms build their own MeshExchange.
  const mesh::CubedSphere& m = st.session->mesh();
  State want = s0, got = s0;
  oracle::hypervis_dp1(ex, d, want, st.nu, st.dt);
  oracle::hypervis_dp2(ex, d, want, st.nu, st.dt);
  oracle::biharmonic_dp3d(ex, d, want, st.nu, st.dt);
  homme::hypervis_dp1(m, d, got, st.nu, st.dt);
  homme::hypervis_dp2(m, d, got, st.nu, st.dt);
  homme::biharmonic_dp3d(m, d, got, st.nu, st.dt);
  expect_bitwise_equal(got, want);
}

class HypervisSweepRanks
    : public ::testing::TestWithParam<BndryExchange::Mode> {};

TEST_P(HypervisSweepRanks, MatchesThePerFieldSequenceAtTwoRanks) {
  const Stepped st = stepped_aquaplanet();
  const mesh::CubedSphere& m = st.session->mesh();
  const Dims& d = st.session->dims();
  const int nranks = 2;
  const auto part = mesh::Partition::build(m, nranks);
  const auto plan = mesh::CommPlan::build(m, part);
  const std::vector<Case> all = cases();
  // want[r][c], got[r][c]: rank r's elements after case c.
  std::vector<std::vector<State>> want(nranks), got(nranks);
  for (int r = 0; r < nranks; ++r) {
    const State local = homme::gather_local(part, r, st.session->state());
    want[static_cast<std::size_t>(r)].assign(all.size(), local);
    got[static_cast<std::size_t>(r)].assign(all.size(), local);
  }
  net::Cluster cluster(nranks);
  cluster.run([&](net::Rank& r) {
    homme::RankExchange ex(m, part, plan, r.rank(), GetParam());
    ex.bind(&r);
    const auto sr = static_cast<std::size_t>(r.rank());
    for (std::size_t c = 0; c < all.size(); ++c) {
      all[c].oracle(ex, d, want[sr][c], st.nu, st.dt);
      all[c].sweep(ex, d, got[sr][c], st.nu, st.dt);
    }
  });
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t c = 0; c < all.size(); ++c) {
      SCOPED_TRACE(std::string(all[c].name) + " rank " + std::to_string(r));
      expect_bitwise_equal(got[static_cast<std::size_t>(r)][c],
                           want[static_cast<std::size_t>(r)][c]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HypervisSweepRanks,
                         ::testing::Values(BndryExchange::Mode::kOverlap,
                                           BndryExchange::Mode::kOriginal),
                         [](const auto& info) {
                           return info.param == BndryExchange::Mode::kOverlap
                                      ? std::string("Overlap")
                                      : std::string("Original");
                         });

}  // namespace
