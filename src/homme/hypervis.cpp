#include "homme/hypervis.hpp"

#include "homme/dss.hpp"
#include "homme/exchange.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Laplacian of a multi-level scalar field into out (no DSS).
void laplacian_field(const Exchange& ex, int nlev,
                     std::span<double* const> field,
                     std::span<double* const> out) {
  for (int le = 0; le < ex.nlocal(); ++le) {
    const auto& g = ex.geom(le);
    for (int lev = 0; lev < nlev; ++lev) {
      laplace_sphere_wk(g, field[static_cast<std::size_t>(le)] + fidx(lev, 0),
                        out[static_cast<std::size_t>(le)] + fidx(lev, 0));
    }
  }
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
  for (int le = 0; le < n; ++le) {
    const double* xe = x[static_cast<std::size_t>(le)];
    double* ye = y[static_cast<std::size_t>(le)];
    for (std::size_t f = 0; f < fs; f += vpack::width) {
      (vpack::load(ye + f) + coef * vpack::load(xe + f)).store(ye + f);
    }
  }
}

/// Rotate the wind of every element to Cartesian components.
void wind_to_cart(const Exchange& ex, const Dims& d, const State& s,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z) {
  for (int le = 0; le < ex.nlocal(); ++le) {
    const std::size_t sle = static_cast<std::size_t>(le);
    const auto& g = ex.geom(le);
    for (int lev = 0; lev < d.nlev; ++lev) {
      contra_to_cart(g, s[sle].u1.data() + fidx(lev, 0),
                     s[sle].u2.data() + fidx(lev, 0), x[sle] + fidx(lev, 0),
                     y[sle] + fidx(lev, 0), z[sle] + fidx(lev, 0));
    }
  }
}

void cart_to_wind(const Exchange& ex, const Dims& d,
                  std::span<double* const> x, std::span<double* const> y,
                  std::span<double* const> z, State& s) {
  for (int le = 0; le < ex.nlocal(); ++le) {
    const std::size_t sle = static_cast<std::size_t>(le);
    const auto& g = ex.geom(le);
    std::span<double> u1 = s[sle].u1.mutable_span();
    std::span<double> u2 = s[sle].u2.mutable_span();
    for (int lev = 0; lev < d.nlev; ++lev) {
      cart_to_contra(g, x[sle] + fidx(lev, 0), y[sle] + fidx(lev, 0),
                     z[sle] + fidx(lev, 0), u1.data() + fidx(lev, 0),
                     u2.data() + fidx(lev, 0));
    }
  }
}

// Scratch sizing. The arena grows only while empty, so every public entry
// point reserves its own worst case *including nested callees* before
// taking a frame; when a public function is re-entered with allocations
// live (laplacian_update / biharmonic_scalar inside hypervis_*), the
// outer reservation already covers it and no growth is attempted. The
// deepest callee is always the exchange's DSS, whose scratch (the whole
// mesh's node accumulator) rides on top of every live field set.
void reserve(ScratchArena& a, const Exchange& ex, std::size_t fs,
             int nfields) {
  const std::size_t pneed = static_cast<std::size_t>(nfields) *
                            static_cast<std::size_t>(ex.nlocal());
  const std::size_t need =
      pneed * fs + ex.dss_scratch(static_cast<int>(fs / kNpp));
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

}  // namespace

void laplacian_update(const mesh::CubedSphere& m, int nlev,
                      std::span<double* const> field, double coef) {
  MeshExchange ex(m);
  laplacian_update(ex, nlev, field, coef);
}

void biharmonic_scalar(const mesh::CubedSphere& m, int nlev,
                       std::span<double* const> field,
                       std::span<double* const> out) {
  MeshExchange ex(m);
  biharmonic_scalar(ex, nlev, field, out);
}

void hypervis_dp1(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt) {
  MeshExchange ex(m);
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

void hypervis_dp2(Exchange& ex, const Dims& d, State& s, double nu,
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

void hypervis_dp2(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt) {
  MeshExchange ex(m);
  hypervis_dp2(ex, d, s, nu, dt);
}

void biharmonic_dp3d(Exchange& ex, const Dims& d, State& s, double nu,
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

void biharmonic_dp3d(const mesh::CubedSphere& m, const Dims& d, State& s,
                     double nu, double dt) {
  MeshExchange ex(m);
  biharmonic_dp3d(ex, d, s, nu, dt);
}

}  // namespace homme
