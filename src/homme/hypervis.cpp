#include "homme/hypervis.hpp"

#include "homme/exchange.hpp"
#include "homme/host_pool.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// The fields a sweep dissipates, in the order of its block: the wind's
/// Cartesian components, then T and dp. A sweep takes a contiguous range.
enum Field : int { kUx, kUy, kUz, kT, kDp, kFields };

/// out <- y + coef * x over one level tile.
void axpy_tile(double coef, const double* x, const double* y, double* out) {
  for (int k = 0; k < kNpp; k += vpack::width) {
    (vpack::load(y + k) + coef * vpack::load(x + k)).store(out + k);
  }
}

/// Fields [f0, f1) <- x + coef * L^order(x) over the elements \p ex owns,
/// L being the weak Laplacian followed by a DSS. Every field's Laplacian
/// lives in one per-element block [f1 - f0][nlev][kNpp]:
///   pass A — one pool item per element: each level's wind rotated to
///            Cartesian components in stack temporaries, then the
///            Laplacian of every field written into the block;
///   order 2 — one DSS of the whole block, pass B applying the Laplacian
///            in place (laplace_sphere_wk reads its tile before it
///            writes), one more DSS;
///   pass C — the Cartesian wind recomputed from the state (the bits pass
///            A rotated), updated and rotated back; T and dp updated in
///            place; then the DSS of T and of dp.
/// At order 1 (nabla^2) the updated wind is assembled too: it stays in
/// the block for one more DSS and is rotated back after it. Each value
/// sees the operations of dissipating its field alone, in their order,
/// so the result is that of the per-field sequence bit for bit.
void sweep(Exchange& ex, const Dims& d, State& s, int f0, int f1, int order,
           double coef) {
  const std::size_t n = static_cast<std::size_t>(ex.nlocal());
  const std::size_t fs = d.field_size();
  const std::size_t bs = static_cast<std::size_t>(f1 - f0) * fs;
  const int nlev = d.nlev;
  const bool wind = f0 == kUx, has_t = f0 <= kT && kT < f1, has_dp = f1 > kDp;
  // The nested DSS takes its node accumulator on top of the block.
  ScratchArena& arena = ScratchArena::thread_local_arena();
  const std::size_t need = n * bs + ex.dss_scratch();
  if (arena.capacity() < need || arena.ptr_capacity() < 3 * n) {
    arena.require(need, 3 * n);
  }
  ScratchArena::Frame frame(arena);
  std::span<double> flat = arena.alloc(n * bs);
  std::span<double*> blk = arena.alloc_ptrs(n), Tp = arena.alloc_ptrs(n),
                     dpp = arena.alloc_ptrs(n);
  auto at = [&](std::size_t le, int f, int lev) {
    return blk[le] + static_cast<std::size_t>(f - f0) * fs + fidx(lev, 0);
  };

  parallel_for(n, [&](std::size_t le) {
    const auto& g = ex.geom(static_cast<int>(le));
    ElementState& es = s[le];
    blk[le] = flat.data() + le * bs;
    if (has_t) Tp[le] = es.T.mutable_span().data();
    if (has_dp) dpp[le] = es.dp.mutable_span().data();
    for (int lev = 0; lev < nlev; ++lev) {
      double c[3][kNpp];
      if (wind) {
        contra_to_cart(g, es.u1.data() + fidx(lev, 0),
                       es.u2.data() + fidx(lev, 0), c[0], c[1], c[2]);
      }
      const double* x[kFields] = {c[0], c[1], c[2],
                                  es.T.data() + fidx(lev, 0),
                                  es.dp.data() + fidx(lev, 0)};
      for (int f = f0; f < f1; ++f) {
        laplace_sphere_wk(g, x[f], at(le, f, lev));
      }
    }
  });
  if (order == 2) {
    const int nl = (f1 - f0) * nlev;
    ex.dss_levels(blk, nl);
    parallel_for(n, [&](std::size_t le) {
      const auto& g = ex.geom(static_cast<int>(le));
      for (int l = 0; l < nl; ++l) {
        laplace_sphere_wk(g, blk[le] + fidx(l, 0), blk[le] + fidx(l, 0));
      }
    });
    ex.dss_levels(blk, nl);
  }

  parallel_for(n, [&](std::size_t le) {
    const auto& g = ex.geom(static_cast<int>(le));
    double* u1 = wind ? s[le].u1.mutable_span().data() : nullptr;
    double* u2 = wind ? s[le].u2.mutable_span().data() : nullptr;
    for (int lev = 0; lev < nlev; ++lev) {
      const std::size_t o = fidx(lev, 0);
      if (wind) {
        double c[3][kNpp];
        contra_to_cart(g, u1 + o, u2 + o, c[0], c[1], c[2]);
        for (int f = kUx; f <= kUz; ++f) {
          axpy_tile(coef, at(le, f, lev), c[f],
                    order == 1 ? at(le, f, lev) : c[f]);
        }
        if (order == 2) cart_to_contra(g, c[0], c[1], c[2], u1 + o, u2 + o);
      }
      if (has_t) axpy_tile(coef, at(le, kT, lev), Tp[le] + o, Tp[le] + o);
      if (has_dp) axpy_tile(coef, at(le, kDp, lev), dpp[le] + o, dpp[le] + o);
    }
  });
  if (wind && order == 1) {
    ex.dss_levels(blk, 3 * nlev);
    parallel_for(n, [&](std::size_t le) {
      const auto& g = ex.geom(static_cast<int>(le));
      std::span<double> u1 = s[le].u1.mutable_span();
      std::span<double> u2 = s[le].u2.mutable_span();
      for (int lev = 0; lev < nlev; ++lev) {
        cart_to_contra(g, at(le, kUx, lev), at(le, kUy, lev),
                       at(le, kUz, lev), u1.data() + fidx(lev, 0),
                       u2.data() + fidx(lev, 0));
      }
    });
  }
  if (has_t) ex.dss_levels(Tp, nlev);
  if (has_dp) ex.dss_levels(dpp, nlev);
}

}  // namespace

void hypervis_dp1(Exchange& ex, const Dims& d, State& s, double nu,
                  double dt) {
  sweep(ex, d, s, kUx, kDp, 1, nu * dt);
}

void hypervis_dp1(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt) {
  MeshExchange ex(m);
  hypervis_dp1(ex, d, s, nu, dt);
}

void hypervis_dp2(Exchange& ex, const Dims& d, State& s, double nu,
                  double dt) {
  sweep(ex, d, s, kUx, kDp, 2, -nu * dt);
}

void hypervis_dp2(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt) {
  MeshExchange ex(m);
  hypervis_dp2(ex, d, s, nu, dt);
}

void biharmonic_dp3d(Exchange& ex, const Dims& d, State& s, double nu,
                     double dt) {
  sweep(ex, d, s, kDp, kFields, 2, -nu * dt);
}

void biharmonic_dp3d(const mesh::CubedSphere& m, const Dims& d, State& s,
                     double nu, double dt) {
  MeshExchange ex(m);
  biharmonic_dp3d(ex, d, s, nu, dt);
}

void hyperviscosity(Exchange& ex, const Dims& d, State& s, double nu,
                    double dt) {
  sweep(ex, d, s, kUx, kFields, 2, -nu * dt);
}

}  // namespace homme
