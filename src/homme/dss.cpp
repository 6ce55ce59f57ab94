#include "homme/dss.hpp"

#include <algorithm>

#include "homme/host_pool.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/state.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Assemble level \p lev of one scalar field in place: gather the
/// mass-weighted element values into the level's node row \p acc
/// (nnodes doubles), visiting elements in order, then write the
/// assembled values back into every element's level.
void dss_level(const mesh::CubedSphere& m, std::span<double* const> f,
               int lev, double* acc) {
  const int nelem = m.nelem();
  std::fill(acc, acc + m.nnodes(), 0.0);
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    const double* fl = f[static_cast<std::size_t>(e)] + fidx(lev, 0);
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      acc[static_cast<std::size_t>(ids[sk])] += g.mass[sk] * fl[k];
    }
  }
  for (int e = 0; e < nelem; ++e) {
    const auto& ids = m.nodes(e);
    const auto& g = m.geom(e);
    double* fl = f[static_cast<std::size_t>(e)] + fidx(lev, 0);
    for (int k = 0; k < kNpp; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      fl[k] = acc[static_cast<std::size_t>(ids[sk])] * g.rmass[sk];
    }
  }
}

}  // namespace

// Levels never mix in a DSS, so both entry points run one level per pool
// item, with a level-major node accumulator (acc[lev * nnodes + node]).
// Each (node, lev) sum still adds its terms in the element order of a
// serial sweep, so the result is bit-identical at any thread count.

void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev) {
  const std::size_t nnodes = static_cast<std::size_t>(m.nnodes());
  const std::size_t acc_n = nnodes * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < acc_n) arena.require(acc_n);
  ScratchArena::Frame frame(arena);
  std::span<double> acc = arena.alloc(acc_n);
  parallel_for(static_cast<std::size_t>(nlev), [&](std::size_t lev) {
    dss_level(m, elem_fields, static_cast<int>(lev),
              acc.data() + lev * nnodes);
  });
}

void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev) {
  // Three level-major node accumulators, one per Cartesian component.
  const int nelem = m.nelem();
  const std::size_t nnodes = static_cast<std::size_t>(m.nnodes());
  const std::size_t acc_n = nnodes * static_cast<std::size_t>(nlev);
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 3 * acc_n) arena.require(3 * acc_n);
  ScratchArena::Frame frame(arena);
  std::span<double> acc = arena.alloc(3 * acc_n);
  // Per level: rotate each element to Cartesian components and gather
  // them, then rotate the assembled components back — the same
  // operations as assembling each component field in turn.
  parallel_for(static_cast<std::size_t>(nlev), [&](std::size_t sl) {
    const int lev = static_cast<int>(sl);
    double* ax = acc.data() + sl * nnodes;
    double* ay = ax + acc_n;
    double* az = ay + acc_n;
    std::fill(ax, ax + nnodes, 0.0);
    std::fill(ay, ay + nnodes, 0.0);
    std::fill(az, az + nnodes, 0.0);
    double cx[kNpp], cy[kNpp], cz[kNpp];
    for (int e = 0; e < nelem; ++e) {
      const std::size_t se = static_cast<std::size_t>(e);
      const auto& ids = m.nodes(e);
      const auto& g = m.geom(e);
      contra_to_cart(g, u1[se] + fidx(lev, 0), u2[se] + fidx(lev, 0), cx, cy,
                     cz);
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        const std::size_t node = static_cast<std::size_t>(ids[sk]);
        ax[node] += g.mass[sk] * cx[k];
        ay[node] += g.mass[sk] * cy[k];
        az[node] += g.mass[sk] * cz[k];
      }
    }
    for (int e = 0; e < nelem; ++e) {
      const std::size_t se = static_cast<std::size_t>(e);
      const auto& ids = m.nodes(e);
      const auto& g = m.geom(e);
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        const std::size_t node = static_cast<std::size_t>(ids[sk]);
        cx[k] = ax[node] * g.rmass[sk];
        cy[k] = ay[node] * g.rmass[sk];
        cz[k] = az[node] * g.rmass[sk];
      }
      cart_to_contra(g, cx, cy, cz, u1[se] + fidx(lev, 0),
                     u2[se] + fidx(lev, 0));
    }
  });
}

}  // namespace homme
