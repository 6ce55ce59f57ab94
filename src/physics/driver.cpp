#include "physics/driver.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "homme/dims.hpp"

namespace phys {

using homme::fidx;
using mesh::kNpp;

namespace {

/// Local east and north unit vectors of one GLL point in Cartesian space:
/// the expressions of homme::wind_to_contra, evaluated once per column and
/// shared by extraction and write-back.
struct LocalFrame {
  double ex, ey, ez, nx, ny, nz;

  LocalFrame(const mesh::ElementGeom& g, std::size_t k)
      : ex(-std::sin(g.lon[k])),
        ey(std::cos(g.lon[k])),
        ez(0.0),
        nx(-std::sin(g.lat[k]) * std::cos(g.lon[k])),
        ny(-std::sin(g.lat[k]) * std::sin(g.lon[k])),
        nz(std::cos(g.lat[k])) {}
};

/// The fields a column pass writes. Each mutable_span() un-shares a COW
/// chunk, so these are taken once per element, not per column.
struct FieldsOut {
  std::span<double> T, u1, u2, q;
  std::span<const double> dp;

  FieldsOut(homme::ElementState& es, const homme::Dims& d)
      : T(es.T.mutable_span()),
        u1(es.u1.mutable_span()),
        u2(es.u2.mutable_span()),
        q(d.qsize > 0 ? es.q_mut(0, d) : std::span<double>{}),
        dp(es.dp.span()) {}
};

/// Fill \p c (already sized to the level count) from column \p k, all but
/// the SST.
void load_column(const homme::ElementState& es, const homme::Dims& d,
                 const mesh::ElementGeom& g, int k, const LocalFrame& fr,
                 Column& c) {
  const std::size_t sk = static_cast<std::size_t>(k);
  const bool has_q = d.qsize > 0;
  const auto qf = has_q ? es.q(0, d) : std::span<const double>{};
  c.lat = g.lat[sk];
  c.lon = g.lon[sk];
  c.ps = homme::kPtop;
  for (int lev = 0; lev < c.nlev; ++lev) {
    const std::size_t f = fidx(lev, k);
    const std::size_t l = static_cast<std::size_t>(lev);
    c.t[l] = es.T[f];
    c.dp[l] = es.dp[f];
    c.q[l] = has_q ? qf[f] / es.dp[f] : 0.0;
    // Physical east/north wind from contravariant components.
    const double u1 = es.u1[f], u2 = es.u2[f];
    const double ux = u1 * g.a1[sk][0] + u2 * g.a2[sk][0];
    const double uy = u1 * g.a1[sk][1] + u2 * g.a2[sk][1];
    const double uz = u1 * g.a1[sk][2] + u2 * g.a2[sk][2];
    c.u[l] = ux * fr.ex + uy * fr.ey;
    c.v[l] = ux * fr.nx + uy * fr.ny + uz * fr.nz;
    // Mid-level pressure: the running sum of dp from the model top.
    c.p[l] = c.ps + 0.5 * c.dp[l];
    c.ps += c.dp[l];
  }
}

/// Write column \p k of \p c back (winds to contravariant components).
void store_column(const Column& c, const mesh::ElementGeom& g, int k,
                  const LocalFrame& fr, const FieldsOut& out) {
  const std::size_t sk = static_cast<std::size_t>(k);
  for (int lev = 0; lev < c.nlev; ++lev) {
    const std::size_t f = fidx(lev, k);
    const std::size_t l = static_cast<std::size_t>(lev);
    out.T[f] = c.t[l];
    if (!out.q.empty()) out.q[f] = c.q[l] * out.dp[f];
    const double ux = c.u[l] * fr.ex + c.v[l] * fr.nx;
    const double uy = c.u[l] * fr.ey + c.v[l] * fr.ny;
    // The ez == 0 term stays, as in wind_to_contra: it can set the sign
    // of a zero.
    const double uz = c.u[l] * fr.ez + c.v[l] * fr.nz;
    out.u1[f] = ux * g.b1[sk][0] + uy * g.b1[sk][1] + uz * g.b1[sk][2];
    out.u2[f] = ux * g.b2[sk][0] + uy * g.b2[sk][1] + uz * g.b2[sk][2];
  }
}

}  // namespace

PhysicsDriver::PhysicsDriver(const mesh::CubedSphere& m,
                             const homme::Dims& d, PhysicsConfig cfg)
    : mesh_(m), dims_(d), cfg_(std::move(cfg)) {}

Column PhysicsDriver::extract_column(const homme::State& s, int e,
                                     int k) const {
  const auto& g = mesh_.geom(e);
  Column c(dims_.nlev);
  load_column(s[static_cast<std::size_t>(e)], dims_, g, k,
              LocalFrame(g, static_cast<std::size_t>(k)), c);
  c.sst = cfg_.sst(c.lat, c.lon);
  return c;
}

void PhysicsDriver::restore_column(const Column& c, homme::State& s, int e,
                                   int k) const {
  const auto& g = mesh_.geom(e);
  store_column(c, g, k, LocalFrame(g, static_cast<std::size_t>(k)),
               FieldsOut(s[static_cast<std::size_t>(e)], dims_));
}

PhysicsStats PhysicsDriver::step(homme::State& s, double dt) {
  PhysicsStats out;
  out.olr_field.assign(
      static_cast<std::size_t>(mesh_.nelem()) * kNpp, 0.0);
  // One column buffer for the whole step: load_column and the SST
  // overwrite every field, so nothing leaks from one column to the next.
  Column c(dims_.nlev);
  double area = 0.0;
  for (int e = 0; e < mesh_.nelem(); ++e) {
    const auto& g = mesh_.geom(e);
    homme::ElementState& es = s[static_cast<std::size_t>(e)];
    const FieldsOut fields(es, dims_);
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      const LocalFrame fr(g, sk);
      load_column(es, dims_, g, k, fr, c);
      c.sst = cfg_.sst(c.lat, c.lon);
      ColumnDiag diag;
      if (cfg_.radiation) gray_radiation(cfg_.rad, c, dt, diag);
      if (cfg_.convection) dry_adjustment(c);
      if (cfg_.condensation) large_scale_condensation(c, dt, diag);
      if (cfg_.surface_pbl) surface_and_pbl(cfg_.sfc, c, dt, diag);
      store_column(c, g, k, fr, fields);

      const double w = g.mass[sk];
      area += w;
      out.mean_precip += w * diag.precip;
      out.mean_olr += w * diag.olr;
      out.mean_shf += w * diag.shf;
      out.mean_lhf += w * diag.lhf;
      out.max_precip = std::max(out.max_precip, diag.precip);
      out.olr_field[static_cast<std::size_t>(e * kNpp + k)] = diag.olr;
    }
  }
  out.mean_precip /= area;
  out.mean_olr /= area;
  out.mean_shf /= area;
  out.mean_lhf /= area;
  return out;
}

}  // namespace phys
