#include "homme/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "homme/euler.hpp"
#include "homme/host_pool.hpp"
#include "homme/hypervis.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"

namespace homme {

using mesh::kNpp;

namespace {

double smallest_gll_spacing(const mesh::CubedSphere& m) {
  // Distance between the two GLL points nearest an element edge of
  // element 0 is representative (the mesh is quasi-uniform).
  double best = std::numeric_limits<double>::max();
  const auto& g = m.geom(0);
  for (int j = 0; j < mesh::kNp; ++j) {
    for (int i = 0; i + 1 < mesh::kNp; ++i) {
      const auto& p = g.pos[static_cast<std::size_t>(mesh::gidx(i, j))];
      const auto& q = g.pos[static_cast<std::size_t>(mesh::gidx(i + 1, j))];
      const double d = std::sqrt((p[0] - q[0]) * (p[0] - q[0]) +
                                 (p[1] - q[1]) * (p[1] - q[1]) +
                                 (p[2] - q[2]) * (p[2] - q[2]));
      best = std::min(best, d);
    }
  }
  return best;
}

/// s <- a*x + b*y elementwise over dynamical fields, one element per pool
/// item.
void blend(const Dims& d, double a, const State& x, double b, const State& y,
           State& out) {
  parallel_for(out.size(), [&](std::size_t e) {
    std::span<double> ou1 = out[e].u1.mutable_span(),
                      ou2 = out[e].u2.mutable_span(),
                      oT = out[e].T.mutable_span(),
                      odp = out[e].dp.mutable_span();
    for (std::size_t f = 0; f < d.field_size(); ++f) {
      ou1[f] = a * x[e].u1[f] + b * y[e].u1[f];
      ou2[f] = a * x[e].u2[f] + b * y[e].u2[f];
      oT[f] = a * x[e].T[f] + b * y[e].T[f];
      odp[f] = a * x[e].dp[f] + b * y[e].dp[f];
    }
  });
}

}  // namespace

Dycore::Dycore(const mesh::CubedSphere& m, const Dims& d, DycoreConfig cfg)
    : Dycore(m, std::make_unique<MeshExchange>(m), d, cfg) {}

Dycore::Dycore(const mesh::CubedSphere& m, const mesh::Partition& part,
               const mesh::CommPlan& plan, const Dims& d, DycoreConfig cfg,
               int rank, BndryExchange::Mode mode)
    : Dycore(m, std::make_unique<RankExchange>(m, part, plan, rank, mode), d,
             cfg) {}

Dycore::Dycore(const mesh::CubedSphere& m, std::unique_ptr<Exchange> ex,
               const Dims& d, DycoreConfig cfg)
    : ex_(std::move(ex)), dims_(d), cfg_(cfg),
      min_dx_(smallest_gll_spacing(m)) {
  if (cfg_.dt <= 0.0) cfg_.dt = stable_dt(m);
  if (cfg_.nu < 0.0) {
    // Damp the 2-dx wave by ~1% of its amplitude per step:
    // nu * dt * (pi/dx)^4 ~ 0.01 => nu = 0.01 dx^4 / (pi^4 dt).
    const double dx4 = std::pow(min_dx_, 4);
    cfg_.nu = 0.01 * dx4 / (97.4 * cfg_.dt);
  }
  stage1_.assign(static_cast<std::size_t>(ex_->nlocal()), ElementState(d));
  stage2_.assign(static_cast<std::size_t>(ex_->nlocal()), ElementState(d));
}

double Dycore::stable_dt(const mesh::CubedSphere& m, double cmax) {
  return 0.25 * smallest_gll_spacing(m) / cmax;
}

void Dycore::set_tracer(obs::Tracer* t) { trk_ = ex_->open_track(t); }

void Dycore::step(net::Rank& r, State& s) {
  // The exchange holds the endpoint only for this collective step.
  ex_->bind(&r);
  try {
    step(s);
  } catch (...) {
    ex_->bind(nullptr);
    throw;
  }
  ex_->bind(nullptr);
}

void Dycore::step(State& s) {
  const double dt = cfg_.dt;
  obs::ScopedSpan step_span(trk_, "dyn:step");

  // SSP-RK3 (Shu-Osher) on the dynamical fields; tracers ride along via
  // the separate euler_step below, as in CAM-SE's subcycling.
  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(*ex_, dims_, s, s, dt, stage1_);
  }
  for (std::size_t e = 0; e < s.size(); ++e) stage1_[e].phis = s[e].phis;

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(*ex_, dims_, stage1_, stage1_, dt, stage2_);
  }
  blend(dims_, 0.75, s, 0.25, stage2_, stage1_);

  {
    obs::ScopedSpan span(trk_, "dyn:rhs_stage");
    compute_and_apply_rhs(*ex_, dims_, stage1_, stage1_, dt, stage2_);
  }
  blend(dims_, 1.0 / 3.0, s, 2.0 / 3.0, stage2_, stage1_);

  for (std::size_t e = 0; e < s.size(); ++e) {
    std::swap(s[e].u1, stage1_[e].u1);
    std::swap(s[e].u2, stage1_[e].u2);
    std::swap(s[e].T, stage1_[e].T);
    std::swap(s[e].dp, stage1_[e].dp);
  }

  if (dims_.qsize > 0) {
    obs::ScopedSpan span(trk_, "dyn:euler");
    euler_step(*ex_, dims_, s, dt, cfg_.limit_tracers);
  }

  if (cfg_.hypervis_on) {
    obs::ScopedSpan span(trk_, "dyn:hypervis");
    hypervis_dp2(*ex_, dims_, s, cfg_.nu, dt);
    biharmonic_dp3d(*ex_, dims_, s, cfg_.nu, dt);
  }

  ++step_count_;
  if (cfg_.remap_freq > 0 && step_count_ % cfg_.remap_freq == 0) {
    // Column-local: no communication at any rank count.
    obs::ScopedSpan span(trk_, "dyn:remap");
    if (accel_ != nullptr) {
      accel_->vertical_remap(s);
    } else {
      vertical_remap_local(dims_, s);
    }
  }
}

void Dycore::run(State& s, int n) {
  for (int i = 0; i < n; ++i) step(s);
}

Diagnostics Dycore::diagnose(const State& s) const {
  Diagnostics out;
  out.min_dp = std::numeric_limits<double>::max();
  out.max_t = -std::numeric_limits<double>::max();
  out.min_t = std::numeric_limits<double>::max();
  const mesh::CubedSphere& m = ex_->mesh();
  for (int e = 0; e < m.nelem(); ++e) {
    const std::size_t se = static_cast<std::size_t>(e);
    const auto& g = m.geom(e);
    for (int lev = 0; lev < dims_.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t f = fidx(lev, k);
        const double w = g.mass[static_cast<std::size_t>(k)];
        const double u1 = s[se].u1[f], u2 = s[se].u2[f];
        const double speed2 =
            g.g11[static_cast<std::size_t>(k)] * u1 * u1 +
            2.0 * g.g12[static_cast<std::size_t>(k)] * u1 * u2 +
            g.g22[static_cast<std::size_t>(k)] * u2 * u2;
        out.dry_mass += w * s[se].dp[f];
        out.total_energy +=
            w * s[se].dp[f] * (kCp * s[se].T[f] + 0.5 * speed2) / kGravity;
        out.max_wind = std::max(out.max_wind, std::sqrt(speed2));
        out.min_dp = std::min(out.min_dp, s[se].dp[f]);
        out.max_t = std::max(out.max_t, s[se].T[f]);
        out.min_t = std::min(out.min_t, s[se].T[f]);
      }
    }
  }
  return out;
}

}  // namespace homme
