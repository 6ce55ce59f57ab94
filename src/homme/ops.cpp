#include "homme/ops.hpp"

#include <array>
#include <cmath>

#include "homme/vpack.hpp"
#include "mesh/gll.hpp"

namespace homme {

using mesh::gidx;
using mesh::kNp;
using mesh::kNpp;

void deriv_ref(const double* s, double* d1, double* d2) {
  const auto& D = mesh::gll().deriv;
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              s[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              s[gidx(i, m)];
      }
      d1[gidx(i, j)] = dx;
      d2[gidx(i, j)] = dy;
    }
  }
}

void gradient_covariant(const double* s, double* d1, double* d2) {
  deriv_ref(s, d1, d2);
}

void gradient_sphere(const mesh::ElementGeom& g, const double* s, double* g1,
                     double* g2) {
  double d1[kNpp], d2[kNpp];
  deriv_ref(s, d1, d2);
  for (int k = 0; k < kNpp; ++k) {
    g1[k] = g.ginv11[static_cast<std::size_t>(k)] * d1[k] +
            g.ginv12[static_cast<std::size_t>(k)] * d2[k];
    g2[k] = g.ginv12[static_cast<std::size_t>(k)] * d1[k] +
            g.ginv22[static_cast<std::size_t>(k)] * d2[k];
  }
}

void divergence_sphere(const mesh::ElementGeom& g, const double* u1,
                       const double* u2, double* div) {
  const auto& D = mesh::gll().deriv;
  double ju1[kNpp], ju2[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    ju1[k] = g.jac[static_cast<std::size_t>(k)] * u1[k];
    ju2[k] = g.jac[static_cast<std::size_t>(k)] * u2[k];
  }
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              ju1[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              ju2[gidx(i, m)];
      }
      const int k = gidx(i, j);
      div[k] = (dx + dy) / g.jac[static_cast<std::size_t>(k)];
    }
  }
}

void vorticity_sphere(const mesh::ElementGeom& g, const double* u1,
                      const double* u2, double* vort) {
  const auto& D = mesh::gll().deriv;
  // Covariant components: cov_i = g_ij u^j.
  double cov1[kNpp], cov2[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    cov1[k] = g.g11[static_cast<std::size_t>(k)] * u1[k] +
              g.g12[static_cast<std::size_t>(k)] * u2[k];
    cov2[k] = g.g12[static_cast<std::size_t>(k)] * u1[k] +
              g.g22[static_cast<std::size_t>(k)] * u2[k];
  }
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double dx = 0.0, dy = 0.0;
      for (int m = 0; m < kNp; ++m) {
        dx += D[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] *
              cov2[gidx(m, j)];
        dy += D[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] *
              cov1[gidx(i, m)];
      }
      const int k = gidx(i, j);
      vort[k] = (dx - dy) / g.jac[static_cast<std::size_t>(k)];
    }
  }
}

void laplace_sphere(const mesh::ElementGeom& g, const double* s,
                    double* lap) {
  double g1[kNpp], g2[kNpp];
  gradient_sphere(g, s, g1, g2);
  divergence_sphere(g, g1, g2, lap);
}

namespace {

/// Lanes per row of a level tile: the i points of row j sit at
/// s + gidx(0, j), contiguous.
constexpr int kRowPacks = kNp / vpack::width;
static_assert(kNp % vpack::width == 0, "vpack width must divide kNp");

using Row = std::array<double, kNp>;

/// The constant factors of laplace_sphere_wk, each formed exactly as the
/// scalar loop forms it, laid out as lanes over i:
///   dt[m][i]     = D[i][m]                (column m of D)
///   f1w[j][m][i] = (D[m][i] * w_m) * w_j  (weight of F1(m,j))
///   f2w[j][m][i] = (D[m][j] * w_i) * w_m  (weight of F2(i,m))
///   ww[j][i]     = w_i * w_j
/// A product of the same doubles rounds the same way whenever it is
/// formed, so hoisting them out of the loop keeps every bit.
struct WkTables {
  std::array<Row, kNp> dt, ww;
  std::array<std::array<Row, kNp>, kNp> f1w, f2w;
};

const WkTables& wk_tables() {
  static const WkTables t = [] {
    const auto& D = mesh::gll().deriv;
    const auto& w = mesh::gll().weights;
    WkTables r{};
    for (std::size_t j = 0; j < kNp; ++j) {
      for (std::size_t m = 0; m < kNp; ++m) {
        for (std::size_t i = 0; i < kNp; ++i) {
          r.f1w[j][m][i] = D[m][i] * w[m] * w[j];
          r.f2w[j][m][i] = D[m][j] * w[i] * w[m];
        }
        r.dt[m][j] = D[j][m];
      }
      for (std::size_t i = 0; i < kNp; ++i) r.ww[j][i] = w[i] * w[j];
    }
    return r;
  }();
  return t;
}

}  // namespace

void laplace_sphere_wk(const mesh::ElementGeom& g, const double* s,
                       double* lap) {
  // One vpack lane per GLL index i. Every lane performs the scalar
  // loop's operations in its order, the constant factors taken from
  // wk_tables(), so the result is the scalar loop's bit for bit. s is
  // read only before lap is written, so s == lap is allowed.
  const auto& D = mesh::gll().deriv;
  const WkTables& t = wk_tables();
  // d1(i,j) = sum_m D[i][m] s(m,j), d2(i,j) = sum_m D[j][m] s(i,m).
  double d1[kNpp], d2[kNpp], f1[kNpp], f2[kNpp];
  for (int j = 0; j < kNp; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    for (int p = 0; p < kRowPacks; ++p) {
      const int i0 = p * vpack::width;
      vpack dx = vpack::zero(), dy = vpack::zero();
      for (int m = 0; m < kNp; ++m) {
        const std::size_t sm = static_cast<std::size_t>(m);
        dx += vpack::load(t.dt[sm].data() + i0) * s[gidx(m, j)];
        dy += D[sj][sm] * vpack::load(s + gidx(i0, m));
      }
      dx.store(d1 + gidx(i0, j));
      dy.store(d2 + gidx(i0, j));
    }
  }
  // Contravariant flux F^a = J g^{ab} ds/dxi_b.
  for (int k = 0; k < kNpp; k += vpack::width) {
    const vpack jac = vpack::load(g.jac.data() + k);
    const vpack g11 = vpack::load(g.ginv11.data() + k);
    const vpack g12 = vpack::load(g.ginv12.data() + k);
    const vpack g22 = vpack::load(g.ginv22.data() + k);
    const vpack a = vpack::load(d1 + k), b = vpack::load(d2 + k);
    (jac * (g11 * a + g12 * b)).store(f1 + k);
    (jac * (g12 * a + g22 * b)).store(f2 + k);
  }
  // Weak divergence: lap(i,j) = -(1/(w_i w_j J)) *
  //   [ sum_m D[m][i] w_m w_j F1(m,j) + sum_m D[m][j] w_i w_m F2(i,m) ].
  for (int j = 0; j < kNp; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    for (int p = 0; p < kRowPacks; ++p) {
      const int i0 = p * vpack::width;
      vpack acc = vpack::zero();
      for (int m = 0; m < kNp; ++m) {
        const std::size_t sm = static_cast<std::size_t>(m);
        acc += vpack::load(t.f1w[sj][sm].data() + i0) * f1[gidx(m, j)];
        acc += vpack::load(t.f2w[sj][sm].data() + i0) *
               vpack::load(f2 + gidx(i0, m));
      }
      const int k = gidx(i0, j);
      (-acc / (vpack::load(t.ww[sj].data() + i0) *
               vpack::load(g.jac.data() + k)))
          .store(lap + k);
    }
  }
}

void contra_to_cart(const mesh::ElementGeom& g, const double* u1,
                    const double* u2, double* ux, double* uy, double* uz) {
  for (int k = 0; k < kNpp; ++k) {
    const auto& a1 = g.a1[static_cast<std::size_t>(k)];
    const auto& a2 = g.a2[static_cast<std::size_t>(k)];
    ux[k] = u1[k] * a1[0] + u2[k] * a2[0];
    uy[k] = u1[k] * a1[1] + u2[k] * a2[1];
    uz[k] = u1[k] * a1[2] + u2[k] * a2[2];
  }
}

void cart_to_contra(const mesh::ElementGeom& g, const double* ux,
                    const double* uy, const double* uz, double* u1,
                    double* u2) {
  for (int k = 0; k < kNpp; ++k) {
    const auto& b1 = g.b1[static_cast<std::size_t>(k)];
    const auto& b2 = g.b2[static_cast<std::size_t>(k)];
    u1[k] = ux[k] * b1[0] + uy[k] * b1[1] + uz[k] * b1[2];
    u2[k] = ux[k] * b2[0] + uy[k] * b2[1] + uz[k] * b2[2];
  }
}

void coriolis_vorticity_term(const mesh::ElementGeom& g,
                             const double* absvort, const double* u1,
                             const double* u2, double* t1, double* t2) {
  double ux[kNpp], uy[kNpp], uz[kNpp];
  contra_to_cart(g, u1, u2, ux, uy, uz);
  double wx[kNpp], wy[kNpp], wz[kNpp];
  const double r = std::sqrt(mesh::dot(g.pos[0], g.pos[0]));
  for (int k = 0; k < kNpp; ++k) {
    const auto& p = g.pos[static_cast<std::size_t>(k)];
    // r_hat x U scaled by (zeta + f).
    const double rx = p[0] / r, ry = p[1] / r, rz = p[2] / r;
    wx[k] = absvort[k] * (ry * uz[k] - rz * uy[k]);
    wy[k] = absvort[k] * (rz * ux[k] - rx * uz[k]);
    wz[k] = absvort[k] * (rx * uy[k] - ry * ux[k]);
  }
  cart_to_contra(g, wx, wy, wz, t1, t2);
}

}  // namespace homme
