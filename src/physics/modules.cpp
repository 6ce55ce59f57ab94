#include "physics/modules.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "homme/dims.hpp"
#include "homme/scratch.hpp"

namespace phys {

using homme::kCp;
using homme::kGravity;
using homme::kKappa;
using homme::kP0;
using homme::kRgas;
using homme::ScratchArena;

namespace {

/// The calling thread's scratch arena, holding at least \p doubles:
/// module temporaries are bump-allocated from it instead of
/// heap-allocated per column.
ScratchArena& column_arena(std::size_t doubles) {
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < doubles) arena.require(doubles);
  return arena;
}

}  // namespace

double saturation_vapor_pressure(double t) {
  // Bolton (1980).
  return 611.2 * std::exp(17.67 * (t - 273.15) / (t - 29.65));
}

double saturation_mixing_ratio(double t, double p) {
  const double es = std::min(saturation_vapor_pressure(t), 0.5 * p);
  return kEps * es / (p - (1.0 - kEps) * es);
}

void gray_radiation(const RadiationConfig& cfg, Column& c, double dt,
                    ColumnDiag& diag) {
  const int n = c.nlev;
  const std::size_t sn = static_cast<std::size_t>(n);
  ScratchArena& arena = column_arena(5 * sn + 2);
  ScratchArena::Frame frame(arena);
  std::span<double> dtau = arena.alloc(sn), tr = arena.alloc(sn),
                    planck = arena.alloc(sn), up = arena.alloc(sn + 1),
                    down = arena.alloc(sn + 1);

  // Gray optical depth grows quadratically toward the surface (a crude
  // water-vapor profile): tau(p) = tau0 (p/ps)^2. Each layer's
  // transmissivity and Planck emission are evaluated once and shared by
  // both streams (the temperatures change only in the heating loop).
  double p_int = homme::kPtop;
  double tau_prev = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
  for (std::size_t k = 0; k < sn; ++k) {
    p_int += c.dp[k];
    const double tau = cfg.tau0 * (p_int / c.ps) * (p_int / c.ps);
    dtau[k] = tau - tau_prev;
    tau_prev = tau;
    tr[k] = std::exp(-dtau[k]);
    planck[k] = kStefan * std::pow(c.t[k], 4);
  }

  down[0] = 0.0;
  for (std::size_t k = 0; k < sn; ++k) {
    down[k + 1] = down[k] * tr[k] + planck[k] * (1.0 - tr[k]);
  }
  up[sn] = kStefan * std::pow(c.sst, 4);
  for (std::size_t k = sn; k-- > 0;) {
    up[k] = up[k + 1] * tr[k] + planck[k] * (1.0 - tr[k]);
  }
  diag.olr = up[0];

  // Annual-mean insolation profile; the absorbed-in-atmosphere part is
  // deposited proportionally to optical depth.
  const double cosl = std::cos(c.lat);
  const double insol = cfg.solar0 * (0.25 + 0.75 * cosl * cosl);
  const double sw_col = insol * (1.0 - cfg.albedo) * cfg.sw_abs_frac;

  double heat_col = 0.0;
  for (int k = 0; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double net =
        (up[sk + 1] - down[sk + 1]) - (up[sk] - down[sk]);  // W/m^2 converged
    const double sw = sw_col * dtau[sk] / std::max(1e-12, cfg.tau0);
    const double heating = net + sw;
    c.t[sk] += dt * heating * kGravity / (kCp * c.dp[sk]);
    heat_col += heating;
  }
  diag.net_heating += heat_col;
}

void dry_adjustment(Column& c, int max_iter) {
  const int n = c.nlev;
  ScratchArena& arena = column_arena(static_cast<std::size_t>(n));
  ScratchArena::Frame frame(arena);
  std::span<double> exner = arena.alloc(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    exner[static_cast<std::size_t>(k)] =
        std::pow(c.p[static_cast<std::size_t>(k)] / kP0, kKappa);
  }
  for (int iter = 0; iter < max_iter; ++iter) {
    bool adjusted = false;
    for (int k = 0; k + 1 < n; ++k) {  // k above, k+1 below
      const std::size_t a = static_cast<std::size_t>(k);
      const std::size_t b = a + 1;
      const double theta_a = c.t[a] / exner[a];
      const double theta_b = c.t[b] / exner[b];
      if (theta_b > theta_a * (1.0 + 1e-12)) {
        // Unstable: mix to a common potential temperature conserving
        // enthalpy cp*(T_a dp_a + T_b dp_b).
        const double denom = exner[a] * c.dp[a] + exner[b] * c.dp[b];
        const double theta = (c.t[a] * c.dp[a] + c.t[b] * c.dp[b]) / denom;
        c.t[a] = theta * exner[a];
        c.t[b] = theta * exner[b];
        // Homogenize moisture too (simple convective transport).
        const double qbar =
            (c.q[a] * c.dp[a] + c.q[b] * c.dp[b]) / (c.dp[a] + c.dp[b]);
        c.q[a] = qbar;
        c.q[b] = qbar;
        adjusted = true;
      }
    }
    if (!adjusted) break;
  }
}

void large_scale_condensation(Column& c, double dt, ColumnDiag& diag) {
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double qs = saturation_mixing_ratio(c.t[sk], c.p[sk]);
    if (c.q[sk] <= qs) continue;
    const double dqs_dt = qs * kLv / (kRv * c.t[sk] * c.t[sk]);
    const double gamma = (kLv / kCp) * dqs_dt;
    const double dq = (c.q[sk] - qs) / (1.0 + gamma);
    c.q[sk] -= dq;
    c.t[sk] += (kLv / kCp) * dq;
    diag.precip += dq * c.dp[sk] / (kGravity * dt);
  }
}

namespace {

/// Thomas algorithm for a tridiagonal system (a=sub, b=diag, c=sup).
void tridiag_solve(std::span<const double> a, std::span<double> b,
                   std::span<const double> cc, std::span<double> d) {
  const std::size_t n = b.size();
  for (std::size_t i = 1; i < n; ++i) {
    const double w = a[i] / b[i - 1];
    b[i] -= w * cc[i - 1];
    d[i] -= w * d[i - 1];
  }
  d[n - 1] /= b[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    d[i] = (d[i] - cc[i] * d[i + 1]) / b[i];
  }
}

}  // namespace

void surface_and_pbl(const SurfaceConfig& cfg, Column& c, double dt,
                     ColumnDiag& diag) {
  const int n = c.nlev;
  const std::size_t bot = static_cast<std::size_t>(n - 1);

  // Bulk surface fluxes into the lowest layer.
  const double rho = c.ps / (kRgas * c.t[bot]);
  const double wind =
      std::max(cfg.min_wind, std::hypot(c.u[bot], c.v[bot]));
  const double ch = rho * cfg.c_drag * wind;
  const double shf = ch * kCp * (c.sst - c.t[bot]);
  const double qs_sfc = saturation_mixing_ratio(c.sst, c.ps);
  const double lhf = std::max(0.0, ch * kLv * (qs_sfc - c.q[bot]));
  c.t[bot] += dt * shf * kGravity / (kCp * c.dp[bot]);
  c.q[bot] += dt * (lhf / kLv) * kGravity / c.dp[bot];
  // Implicit momentum drag.
  const double drag = ch * kGravity * dt / c.dp[bot];
  c.u[bot] /= (1.0 + drag);
  c.v[bot] /= (1.0 + drag);
  diag.shf += shf;
  diag.lhf += lhf;

  // Implicit vertical diffusion over the PBL depth. In pressure
  // coordinates d/dt X = g^2 d/dp (rho^2 K dX/dp).
  const std::size_t sn = static_cast<std::size_t>(n);
  ScratchArena& arena = column_arena(4 * sn + 1);
  ScratchArena::Frame frame(arena);
  std::span<double> kfac = arena.alloc_zero(sn + 1);
  for (int k = 1; k < n; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const double p_int = 0.5 * (c.p[sk - 1] + c.p[sk]);
    if (p_int < c.ps - cfg.pbl_depth_pa) continue;
    const double rho_i = p_int / (kRgas * 0.5 * (c.t[sk - 1] + c.t[sk]));
    const double dpi = c.p[sk] - c.p[sk - 1];
    kfac[sk] = kGravity * kGravity * rho_i * rho_i * cfg.k_pbl / dpi;
  }

  // One tridiagonal system, rebuilt for each diffused field and solved
  // in place on it.
  std::span<double> a = arena.alloc(sn), b = arena.alloc(sn),
                    cc = arena.alloc(sn);
  auto diffuse = [&](std::span<double> x) {
    for (std::size_t k = 0; k < sn; ++k) {
      const double up = kfac[k] * dt / c.dp[k];
      const double dn = kfac[k + 1] * dt / c.dp[k];
      a[k] = -up;
      cc[k] = -dn;
      b[k] = 1.0 + up + dn;
    }
    tridiag_solve(a, b, cc, x);
  };
  diffuse(c.t);
  diffuse(c.q);
  diffuse(c.u);
  diffuse(c.v);
}

double column_moist_enthalpy(const Column& c) {
  double s = 0.0;
  for (int k = 0; k < c.nlev; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    s += (kCp * c.t[sk] + kLv * c.q[sk]) * c.dp[sk];
  }
  return s;
}

}  // namespace phys
