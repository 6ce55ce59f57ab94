#include "homme/euler.hpp"

#include <algorithm>

#include "homme/exchange.hpp"
#include "homme/host_pool.hpp"
#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

void element_tracer_rhs(const mesh::ElementGeom& g, const Dims& d,
                        const ElementState& es,
                        std::span<const double> qdp, std::span<double> rhs) {
  double f1[kNpp], f2[kNpp];
  for (int lev = 0; lev < d.nlev; ++lev) {
    const double* u1 = es.u1.data() + fidx(lev, 0);
    const double* u2 = es.u2.data() + fidx(lev, 0);
    const double* q = qdp.data() + fidx(lev, 0);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      const vpack vq = vpack::load(q + k);
      (vpack::load(u1 + k) * vq).store(f1 + k);
      (vpack::load(u2 + k) * vq).store(f2 + k);
    }
    double* r = rhs.data() + fidx(lev, 0);
    divergence_sphere(g, f1, f2, r);
    for (int p = 0; p < kTilePacks; ++p) {
      const int k = p * vpack::width;
      (-vpack::load(r + k)).store(r + k);
    }
  }
}

void positivity_limiter(const mesh::ElementGeom& g, int nlev,
                        std::span<double> qdp) {
  for (int lev = 0; lev < nlev; ++lev) {
    double mass = 0.0, positive = 0.0;
    for (int k = 0; k < kNpp; ++k) {
      const double v = qdp[fidx(lev, k)];
      const double w = g.mass[static_cast<std::size_t>(k)];
      mass += w * v;
      if (v > 0.0) positive += w * v;
    }
    if (mass <= 0.0) {
      // Nothing positive to redistribute; clip to zero.
      for (int k = 0; k < kNpp; ++k) {
        if (qdp[fidx(lev, k)] < 0.0) qdp[fidx(lev, k)] = 0.0;
      }
      continue;
    }
    if (positive == mass) continue;  // nothing negative
    const double scale = mass / positive;
    for (int k = 0; k < kNpp; ++k) {
      double& v = qdp[fidx(lev, k)];
      v = v > 0.0 ? v * scale : 0.0;
    }
  }
}

void euler_step(Exchange& ex, const Dims& d, State& s, double dt,
                bool limit) {
  const std::size_t sn = static_cast<std::size_t>(ex.nlocal());
  const std::size_t fs = d.field_size();

  // Per-tracer stage buffers (q0 = start of step, qs = working stage),
  // carved from the scratch arena instead of per-call heap vectors. The
  // reservation also covers the nested DSS's own scratch, which it takes
  // while all three buffers are live.
  const std::size_t need = 3 * sn * fs + ex.dss_scratch();
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < need || arena.ptr_capacity() < sn) {
    arena.require(need, sn);
  }
  ScratchArena::Frame frame(arena);
  std::span<double> q0 = arena.alloc(sn * fs), qs = arena.alloc(sn * fs),
                    rhs = arena.alloc(sn * fs);
  std::span<double*> qs_ptrs = arena.alloc_ptrs(sn);
  for (std::size_t le = 0; le < sn; ++le) qs_ptrs[le] = qs.data() + le * fs;

  // Every loop below is one element per pool item, writing only that
  // element's slice of the stage buffers (or of s); the DSS between
  // stages is the only cross-element step.
  for (int q = 0; q < d.qsize; ++q) {
    parallel_for(sn, [&](std::size_t le) {
      auto src = s[le].q(q, d);
      std::copy(src.begin(), src.end(), q0.begin() + le * fs);
      std::copy(src.begin(), src.end(), qs.begin() + le * fs);
    });

    // SSP-RK3 (Shu-Osher): each stage = Euler step + convex combination,
    // with DSS (and optionally the limiter) after every stage.
    const double stage_w[3][2] = {
        {0.0, 1.0},              // q1 = q0 + dt L(q0)
        {0.75, 0.25},            // q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
        {1.0 / 3.0, 2.0 / 3.0}}; // q3 = 1/3 q0 + 2/3 (q2 + dt L(q2))
    for (int stage = 0; stage < 3; ++stage) {
      const double a = stage_w[stage][0];
      const double b = stage_w[stage][1];
      parallel_for(sn, [&](std::size_t sle) {
        element_tracer_rhs(ex.geom(static_cast<int>(sle)), d, s[sle],
                           qs.subspan(sle * fs, fs),
                           rhs.subspan(sle * fs, fs));
        const double* q0e = q0.data() + sle * fs;
        const double* re = rhs.data() + sle * fs;
        double* qe = qs.data() + sle * fs;
        for (std::size_t f = 0; f < fs; f += vpack::width) {
          (a * vpack::load(q0e + f) +
           b * (vpack::load(qe + f) + dt * vpack::load(re + f)))
              .store(qe + f);
        }
      });
      ex.dss_levels(qs_ptrs, d.nlev);
      if (limit) {
        parallel_for(sn, [&](std::size_t le) {
          positivity_limiter(ex.geom(static_cast<int>(le)), d.nlev,
                             qs.subspan(le * fs, fs));
        });
      }
    }

    parallel_for(sn, [&](std::size_t le) {
      auto dst = s[le].q_mut(q, d);
      std::copy(qs.begin() + le * fs, qs.begin() + (le + 1) * fs,
                dst.begin());
    });
  }
}

void euler_step(const mesh::CubedSphere& m, const Dims& d, State& s,
                double dt, bool limit) {
  MeshExchange ex(m);
  euler_step(ex, d, s, dt, limit);
}

double tracer_mass(const mesh::CubedSphere& m, const Dims& d, const State& s,
                   int tracer) {
  double total = 0.0;
  for (int e = 0; e < m.nelem(); ++e) {
    const auto& g = m.geom(e);
    auto q = s[static_cast<std::size_t>(e)].q(tracer, d);
    for (int lev = 0; lev < d.nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        total += g.mass[static_cast<std::size_t>(k)] * q[fidx(lev, k)];
      }
    }
  }
  return total;
}

}  // namespace homme
