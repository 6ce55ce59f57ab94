#include "homme/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "homme/dss.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/gll.hpp"

namespace {

using mesh::kNpp;

TEST(HommeOps, GradientOfConstantIsZero) {
  auto m = mesh::CubedSphere::build(3, 1.0);
  double s[kNpp], g1[kNpp], g2[kNpp];
  for (double& x : s) x = 7.5;
  for (int e = 0; e < m.nelem(); e += 11) {
    homme::gradient_sphere(m.geom(e), s, g1, g2);
    for (int k = 0; k < kNpp; ++k) {
      EXPECT_NEAR(g1[k], 0.0, 1e-12);
      EXPECT_NEAR(g2[k], 0.0, 1e-12);
    }
  }
}

TEST(HommeOps, GradientOfLinearFunctionOfPosition) {
  // s = c . P is smooth on the sphere; the contravariant gradient pushed
  // back to Cartesian must equal the tangential projection of c.
  auto m = mesh::CubedSphere::build(8, 1.0);
  const mesh::Vec3 c = {0.3, -1.1, 0.7};
  for (int e = 0; e < m.nelem(); e += 37) {
    const auto& g = m.geom(e);
    double s[kNpp], g1[kNpp], g2[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      s[k] = mesh::dot(c, g.pos[static_cast<std::size_t>(k)]);
    }
    homme::gradient_sphere(g, s, g1, g2);
    double gx[kNpp], gy[kNpp], gz[kNpp];
    homme::contra_to_cart(g, g1, g2, gx, gy, gz);
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      const double radial = mesh::dot(c, p);  // |p| = 1
      // Tangential projection of c.
      const double tx = c[0] - radial * p[0];
      const double ty = c[1] - radial * p[1];
      const double tz = c[2] - radial * p[2];
      // Degree-3 elements: the interpolant of a non-polynomial function
      // differentiates with spectral (not exact) accuracy.
      EXPECT_NEAR(gx[k], tx, 5e-3);
      EXPECT_NEAR(gy[k], ty, 5e-3);
      EXPECT_NEAR(gz[k], tz, 5e-3);
    }
  }
}

TEST(HommeOps, ContraCartRoundTrip) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    double u1[kNpp], u2[kNpp], v1[kNpp], v2[kNpp];
    double x[kNpp], y[kNpp], z[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      u1[k] = dist(rng) * 1e-5;
      u2[k] = dist(rng) * 1e-5;
    }
    homme::contra_to_cart(g, u1, u2, x, y, z);
    homme::cart_to_contra(g, x, y, z, v1, v2);
    for (int k = 0; k < kNpp; ++k) {
      EXPECT_NEAR(v1[k], u1[k], 1e-15 + 1e-9 * std::abs(u1[k]));
      EXPECT_NEAR(v2[k], u2[k], 1e-15 + 1e-9 * std::abs(u2[k]));
    }
  }
}

TEST(HommeOps, CartesianVectorsAreTangent) {
  auto m = mesh::CubedSphere::build(2, 1.0);
  const auto& g = m.geom(5);
  double u1[kNpp], u2[kNpp], x[kNpp], y[kNpp], z[kNpp];
  for (int k = 0; k < kNpp; ++k) {
    u1[k] = 0.3 + 0.01 * k;
    u2[k] = -0.2;
  }
  homme::contra_to_cart(g, u1, u2, x, y, z);
  for (int k = 0; k < kNpp; ++k) {
    const auto& p = g.pos[static_cast<std::size_t>(k)];
    EXPECT_NEAR(x[k] * p[0] + y[k] * p[1] + z[k] * p[2], 0.0, 1e-12);
  }
}

TEST(HommeOps, DivergenceOfSolidBodyFlowIsZero) {
  // u = W x P (solid-body rotation) is divergence free.
  auto m = mesh::CubedSphere::build(4, 1.0);
  const mesh::Vec3 w = {0.0, 0.0, 1.0};
  for (int e = 0; e < m.nelem(); e += 13) {
    const auto& g = m.geom(e);
    double ux[kNpp], uy[kNpp], uz[kNpp], u1[kNpp], u2[kNpp], div[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      ux[k] = w[1] * p[2] - w[2] * p[1];
      uy[k] = w[2] * p[0] - w[0] * p[2];
      uz[k] = w[0] * p[1] - w[1] * p[0];
    }
    homme::cart_to_contra(g, ux, uy, uz, u1, u2);
    homme::divergence_sphere(g, u1, u2, div);
    for (int k = 0; k < kNpp; ++k) {
      EXPECT_NEAR(div[k], 0.0, 2e-2);  // spectral truncation of tan()
    }
  }
}

TEST(HommeOps, VorticityOfSolidBodyFlowIsTwiceOmegaSinLat) {
  auto m = mesh::CubedSphere::build(8, 1.0);
  const double w0 = 1.0;
  double max_err = 0.0;
  for (int e = 0; e < m.nelem(); e += 17) {
    const auto& g = m.geom(e);
    double ux[kNpp], uy[kNpp], uz[kNpp], u1[kNpp], u2[kNpp], vort[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      ux[k] = -w0 * p[1];
      uy[k] = w0 * p[0];
      uz[k] = 0.0;
    }
    homme::cart_to_contra(g, ux, uy, uz, u1, u2);
    homme::vorticity_sphere(g, u1, u2, vort);
    for (int k = 0; k < kNpp; ++k) {
      const double expect =
          2.0 * w0 * std::sin(g.lat[static_cast<std::size_t>(k)]);
      max_err = std::max(max_err, std::abs(vort[k] - expect));
    }
  }
  EXPECT_LT(max_err, 5e-3);
}

TEST(HommeOps, VorticityOfGradientVanishesAfterDss) {
  // curl(grad s) = 0 pointwise for the C0-projected field.
  auto m = mesh::CubedSphere::build(4, 1.0);
  const int nelem = m.nelem();
  std::vector<std::vector<double>> s(static_cast<std::size_t>(nelem));
  std::vector<double*> sp(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    auto& buf = s[static_cast<std::size_t>(e)];
    buf.resize(kNpp);
    const auto& g = m.geom(e);
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      buf[static_cast<std::size_t>(k)] = p[0] * p[1] + 0.5 * p[2];
    }
    sp[static_cast<std::size_t>(e)] = buf.data();
  }
  homme::dss_levels(m, sp, 1);
  for (int e = 0; e < nelem; e += 7) {
    const auto& g = m.geom(e);
    double g1[kNpp], g2[kNpp], vort[kNpp];
    homme::gradient_sphere(g, s[static_cast<std::size_t>(e)].data(), g1, g2);
    homme::vorticity_sphere(g, g1, g2, vort);
    for (int k = 0; k < kNpp; ++k) {
      EXPECT_NEAR(vort[k], 0.0, 1e-10);
    }
  }
}

TEST(HommeOps, GlobalDivergenceIntegralVanishes) {
  // Gauss: integral of div(u) over the closed sphere is zero for any C0
  // vector field.
  auto m = mesh::CubedSphere::build(3, 1.0);
  double total = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    double ux[kNpp], uy[kNpp], uz[kNpp], u1[kNpp], u2[kNpp], div[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      // A smooth global field: tangential projection of a fixed vector.
      const mesh::Vec3 c = {1.0, 2.0, -0.5};
      const double radial = mesh::dot(c, p);
      ux[k] = c[0] - radial * p[0];
      uy[k] = c[1] - radial * p[1];
      uz[k] = c[2] - radial * p[2];
    }
    homme::cart_to_contra(g, ux, uy, uz, u1, u2);
    homme::divergence_sphere(g, u1, u2, div);
    for (int k = 0; k < kNpp; ++k) {
      total += g.mass[static_cast<std::size_t>(k)] * div[k];
    }
  }
  EXPECT_NEAR(total, 0.0, 1e-10);
}

TEST(HommeOps, LaplaceOfConstantIsZero) {
  auto m = mesh::CubedSphere::build(2, 1.0);
  double s[kNpp], lap[kNpp];
  for (double& x : s) x = 3.0;
  homme::laplace_sphere(m.geom(7), s, lap);
  for (int k = 0; k < kNpp; ++k) EXPECT_NEAR(lap[k], 0.0, 1e-12);
}

/// The scalar weak Laplacian the vpack one replaced, kept as its oracle.
void laplace_sphere_wk_scalar(const mesh::ElementGeom& g, const double* s,
                              double* lap) {
  using mesh::gidx;
  using mesh::kNp;
  const auto& D = mesh::gll().deriv;
  const auto& w = mesh::gll().weights;
  // Contravariant flux F^a = J g^{ab} ds/dxi_b.
  double d1[kNpp], d2[kNpp], f1[kNpp], f2[kNpp];
  homme::deriv_ref(s, d1, d2);
  for (int k = 0; k < kNpp; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    f1[k] = g.jac[sk] * (g.ginv11[sk] * d1[k] + g.ginv12[sk] * d2[k]);
    f2[k] = g.jac[sk] * (g.ginv12[sk] * d1[k] + g.ginv22[sk] * d2[k]);
  }
  // Weak divergence: lap(i,j) = -(1/(w_i w_j J)) *
  //   [ sum_m D[m][i] w_m w_j F1(m,j) + sum_m D[m][j] w_i w_m F2(i,m) ].
  for (int j = 0; j < kNp; ++j) {
    for (int i = 0; i < kNp; ++i) {
      double acc = 0.0;
      for (int m = 0; m < kNp; ++m) {
        acc += D[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)] *
               w[static_cast<std::size_t>(m)] *
               w[static_cast<std::size_t>(j)] * f1[gidx(m, j)];
        acc += D[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] *
               w[static_cast<std::size_t>(i)] *
               w[static_cast<std::size_t>(m)] * f2[gidx(i, m)];
      }
      const int k = gidx(i, j);
      lap[k] = -acc / (w[static_cast<std::size_t>(i)] *
                       w[static_cast<std::size_t>(j)] *
                       g.jac[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(HommeOps, WeakLaplaceMatchesTheScalarLoopBitForBit) {
  // Every element of an ne4 mesh, a field with structure at every scale
  // (smooth plus random), out of place and in place (s == lap).
  auto m = mesh::CubedSphere::build(4, mesh::kEarthRadius);
  std::mt19937 rng(20170);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    double s[kNpp], want[kNpp], got[kNpp];
    for (int k = 0; k < kNpp; ++k) {
      const auto& p = g.pos[static_cast<std::size_t>(k)];
      s[k] = 280.0 + 1e-5 * (p[0] - 0.5 * p[2]) + noise(rng);
    }
    laplace_sphere_wk_scalar(g, s, want);
    homme::laplace_sphere_wk(g, s, got);
    EXPECT_EQ(std::memcmp(got, want, sizeof want), 0) << "element " << e;
    homme::laplace_sphere_wk(g, s, s);
    EXPECT_EQ(std::memcmp(s, want, sizeof want), 0)
        << "element " << e << " in place";
  }
}

}  // namespace
