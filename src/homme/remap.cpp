#include "homme/remap.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "homme/host_pool.hpp"
#include "homme/scratch.hpp"
#include "homme/vpack.hpp"

namespace homme {

using mesh::kNpp;

namespace {

/// Fritsch-Carlson monotone cubic Hermite slopes for data (x_i, y_i).
/// \p delta is caller-provided scratch of n-1 entries.
void monotone_slopes(std::span<const double> x, std::span<const double> y,
                     std::span<double> m, std::span<double> delta) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    delta[i] = (y[i + 1] - y[i]) / (x[i + 1] - x[i]);
  }
  m[0] = delta[0];
  m[n - 1] = delta[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    m[i] = (delta[i - 1] * delta[i] <= 0.0)
               ? 0.0
               : 0.5 * (delta[i - 1] + delta[i]);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (delta[i] == 0.0) {
      m[i] = 0.0;
      m[i + 1] = 0.0;
      continue;
    }
    const double a = m[i] / delta[i];
    const double b = m[i + 1] / delta[i];
    const double s = a * a + b * b;
    if (s > 9.0) {
      const double tau = 3.0 / std::sqrt(s);
      m[i] = tau * a * delta[i];
      m[i + 1] = tau * b * delta[i];
    }
  }
}

/// Hermite basis evaluation on interval \p lo (x[lo] <= xq < x[lo+1]).
double hermite_on(std::span<const double> x, std::span<const double> y,
                  std::span<const double> m, std::size_t lo, double xq) {
  const double h = x[lo + 1] - x[lo];
  const double t = (xq - x[lo]) / h;
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2 * t3 - 3 * t2 + 1;
  const double h10 = t3 - 2 * t2 + t;
  const double h01 = -2 * t3 + 3 * t2;
  const double h11 = t3 - t2;
  return h00 * y[lo] + h10 * h * m[lo] + h01 * y[lo + 1] + h11 * h * m[lo + 1];
}

/// Evaluate the monotone cubic at \p xq (monotone increasing x), keeping
/// a caller-maintained interval cursor: successive calls query monotone
/// increasing xq (the target interfaces), so the containing interval is
/// found by walking \p lo forward — O(1) amortized per evaluation versus
/// the binary search the scalar reference re-runs for every interface.
/// The interval chosen is identical (x strictly increasing), so the
/// arithmetic is too.
double eval_hermite(std::span<const double> x, std::span<const double> y,
                    std::span<const double> m, double xq, std::size_t& lo) {
  const std::size_t n = x.size();
  if (xq <= x[0]) return y[0];
  if (xq >= x[n - 1]) return y[n - 1];
  while (x[lo + 1] <= xq) ++lo;
  return hermite_on(x, y, m, lo, xq);
}

/// Shared remap core once the cumulative coordinates exist: build the
/// cumulative integral of q on the source grid, fit the monotone cubic
/// and difference it at the target interfaces. \p ys, \p slopes (n+1)
/// and \p delta (n) are caller scratch.
void remap_core(std::span<const double> xs, std::span<const double> xt,
                std::span<const double> src_dp,
                std::span<const double> tgt_dp, std::span<double> ys,
                std::span<double> slopes, std::span<double> delta,
                std::span<double> q) {
  const std::size_t n = q.size();
  ys[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    ys[k + 1] = ys[k] + q[k] * src_dp[k];
  }
  monotone_slopes(xs, ys, slopes, delta);
  double prev = 0.0;
  std::size_t lo = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double cur =
        (k + 1 == n) ? ys[n] : eval_hermite(xs, ys, slopes, xt[k + 1], lo);
    q[k] = (cur - prev) / tgt_dp[k];
    prev = cur;
  }
}

/// The remappability guard of one column: strictly positive layer
/// thicknesses and column masses that agree to roundoff. \p where names
/// the column for the error message ("element 3 column 7" or "").
void check_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, double src_mass,
                  double tgt_mass, const std::string& where) {
  const std::size_t n = src_dp.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (!(src_dp[k] > 0.0)) {
      throw RemapError("remap_column: non-positive source thickness dp=" +
                       std::to_string(src_dp[k]) + " at level " +
                       std::to_string(k) + (where.empty() ? "" : " of " + where));
    }
    if (!(tgt_dp[k] > 0.0)) {
      throw RemapError("remap_column: non-positive target thickness dp=" +
                       std::to_string(tgt_dp[k]) + " at level " +
                       std::to_string(k) + (where.empty() ? "" : " of " + where));
    }
  }
  // The totals must agree (same column mass); tolerate roundoff. Kept as
  // an assert too so debug builds stop in the debugger at the caller.
  assert(std::abs(src_mass - tgt_mass) <=
         1e-8 * std::max(1.0, std::abs(src_mass)));
  if (std::abs(src_mass - tgt_mass) >
      1e-8 * std::max(1.0, std::abs(src_mass))) {
    throw RemapError("remap_column: column mass mismatch (source " +
                     std::to_string(src_mass) + ", target " +
                     std::to_string(tgt_mass) +
                     (where.empty() ? ")" : ") in " + where));
  }
}

}  // namespace

void remap_column(std::span<const double> src_dp,
                  std::span<const double> tgt_dp, std::span<double> q) {
  const std::size_t n = src_dp.size();
  assert(tgt_dp.size() == n && q.size() == n);

  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 5 * (n + 1)) arena.require(5 * (n + 1));
  ScratchArena::Frame frame(arena);
  std::span<double> xs = arena.alloc(n + 1), ys = arena.alloc(n + 1),
                    slopes = arena.alloc(n + 1), xt = arena.alloc(n + 1),
                    delta = arena.alloc(n);

  // Cumulative mass coordinate on both grids.
  xs[0] = 0.0;
  xt[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    xs[k + 1] = xs[k] + src_dp[k];
    xt[k + 1] = xt[k] + tgt_dp[k];
  }
  check_column(src_dp, tgt_dp, xs[n], xt[n], "");

  remap_core(xs, xt, src_dp, tgt_dp, ys, slopes, delta, q);
}

void vertical_remap(const mesh::CubedSphere& m, const Dims& d, State& s) {
  assert(static_cast<std::size_t>(m.nelem()) == s.size());
  (void)m;
  vertical_remap_local(d, s);
}

void vertical_remap_local(const Dims& d, State& s) {
  const HybridCoord hc = HybridCoord::uniform(d.nlev);
  const int nlev = d.nlev;
  const std::size_t n = static_cast<std::size_t>(nlev);
  const std::size_t fs = d.field_size();

  // Arena layout per element: two SoA interface tiles ((nlev+1) x kNpp)
  // for the cumulative mass coordinates, one SoA layer tile for the
  // target thicknesses, and seven per-column strips.
  const std::size_t need =
      2 * (n + 1) * kNpp + fs + 4 * (n + 1) + 3 * n;

  // One element per pool item, each in a frame of its own thread's arena;
  // an element touches only its own fields.
  parallel_for(s.size(), [&](std::size_t e) {
    ScratchArena& arena = ScratchArena::thread_local_arena();
    if (arena.capacity() < need) arena.require(need);
    ScratchArena::Frame frame(arena);

    std::span<double> xs_soa = arena.alloc((n + 1) * kNpp);
    std::span<double> xt_soa = arena.alloc((n + 1) * kNpp);
    std::span<double> tgt_soa = arena.alloc(fs);
    std::span<double> xs = arena.alloc(n + 1), xt = arena.alloc(n + 1),
                      ys = arena.alloc(n + 1), slopes = arena.alloc(n + 1),
                      delta = arena.alloc(n), src = arena.alloc(n),
                      col = arena.alloc(n);

    ElementState& es = s[e];

    // Tiled vertical scan: the cumulative source-mass coordinate of all
    // kNpp columns advances level by level, 16 lanes wide, instead of one
    // strided column at a time.
    for (int p = 0; p < kTilePacks; ++p) {
      vpack::zero().store(xs_soa.data() + p * vpack::width);
    }
    for (int lev = 0; lev < nlev; ++lev) {
      const double* dpl = es.dp.data() + fidx(lev, 0);
      double* cur = xs_soa.data() + fidx(lev, 0);
      double* nxt = xs_soa.data() + fidx(lev + 1, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        (vpack::load(cur + k) + vpack::load(dpl + k)).store(nxt + k);
      }
    }

    // Reference target thicknesses from each column's surface pressure
    // ps = ptop + total mass, evaluated 16 columns at a time, then the
    // same tiled scan for the target coordinate.
    for (int lev = 0; lev < nlev; ++lev) {
      const double a0 = hc.hyai[static_cast<std::size_t>(lev)] * kP0;
      const double a1 = hc.hyai[static_cast<std::size_t>(lev) + 1] * kP0;
      const double b0 = hc.hybi[static_cast<std::size_t>(lev)];
      const double b1 = hc.hybi[static_cast<std::size_t>(lev) + 1];
      const double* total = xs_soa.data() + fidx(nlev, 0);
      double* tl = tgt_soa.data() + fidx(lev, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        const vpack ps = vpack::load(total + k) + kPtop;
        ((b1 * ps + a1) - (b0 * ps + a0)).store(tl + k);
      }
    }
    for (int p = 0; p < kTilePacks; ++p) {
      vpack::zero().store(xt_soa.data() + p * vpack::width);
    }
    for (int lev = 0; lev < nlev; ++lev) {
      const double* tl = tgt_soa.data() + fidx(lev, 0);
      double* cur = xt_soa.data() + fidx(lev, 0);
      double* nxt = xt_soa.data() + fidx(lev + 1, 0);
      for (int p = 0; p < kTilePacks; ++p) {
        const int k = p * vpack::width;
        (vpack::load(cur + k) + vpack::load(tl + k)).store(nxt + k);
      }
    }

    // Every prognostic field of this element is rewritten below; un-share
    // them once up front rather than per column.
    std::span<double> fu1 = es.u1.mutable_span(), fu2 = es.u2.mutable_span(),
                      fT = es.T.mutable_span(), fdp = es.dp.mutable_span();

    for (int k = 0; k < kNpp; ++k) {
      for (int lev = 0; lev <= nlev; ++lev) {
        xs[static_cast<std::size_t>(lev)] = xs_soa[fidx(lev, k)];
        xt[static_cast<std::size_t>(lev)] = xt_soa[fidx(lev, k)];
      }
      for (int lev = 0; lev < nlev; ++lev) {
        src[static_cast<std::size_t>(lev)] = es.dp[fidx(lev, k)];
      }
      // Guard before any divide: a zero/negative layer thickness
      // (reachable under injected faults before rollback triggers) or a
      // mass-inconsistent column must surface, not silently remap.
      for (int lev = 0; lev < nlev; ++lev) {
        const double sdp = src[static_cast<std::size_t>(lev)];
        const double tdp = tgt_soa[fidx(lev, k)];
        if (!(sdp > 0.0) || !(tdp > 0.0)) {
          throw RemapError(
              "vertical_remap: non-positive layer thickness (src dp=" +
              std::to_string(sdp) + ", tgt dp=" + std::to_string(tdp) +
              ") at level " + std::to_string(lev) + " of element " +
              std::to_string(e) + " column " + std::to_string(k));
        }
      }
      if (std::abs(xs[n] - xt[n]) > 1e-8 * std::max(1.0, std::abs(xs[n]))) {
        throw RemapError("vertical_remap: column mass mismatch (source " +
                         std::to_string(xs[n]) + ", target " +
                         std::to_string(xt[n]) + ") in element " +
                         std::to_string(e) + " column " + std::to_string(k));
      }

      // Remap col (source cell averages) to target cell averages in place.
      auto remap_col_inplace = [&] {
        ys[0] = 0.0;
        for (int lev = 0; lev < nlev; ++lev) {
          ys[static_cast<std::size_t>(lev) + 1] =
              ys[static_cast<std::size_t>(lev)] +
              col[static_cast<std::size_t>(lev)] *
                  src[static_cast<std::size_t>(lev)];
        }
        monotone_slopes(xs, ys, slopes, delta);
        double prev = 0.0;
        std::size_t lo = 0;
        for (int lev = 0; lev < nlev; ++lev) {
          const double cur =
              (lev + 1 == nlev)
                  ? ys[n]
                  : eval_hermite(xs, ys, slopes,
                                 xt[static_cast<std::size_t>(lev) + 1], lo);
          col[static_cast<std::size_t>(lev)] =
              (cur - prev) / tgt_soa[fidx(lev, k)];
          prev = cur;
        }
      };

      auto remap_field = [&](double* field) {
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] = field[fidx(lev, k)];
        }
        remap_col_inplace();
        for (int lev = 0; lev < nlev; ++lev) {
          field[fidx(lev, k)] = col[static_cast<std::size_t>(lev)];
        }
      };
      remap_field(fu1.data());
      remap_field(fu2.data());
      remap_field(fT.data());
      for (int q = 0; q < d.qsize; ++q) {
        // Tracers are carried as qdp; remap the mixing ratio and rebuild.
        auto qf = es.q_mut(q, d);
        for (int lev = 0; lev < nlev; ++lev) {
          col[static_cast<std::size_t>(lev)] =
              qf[fidx(lev, k)] / src[static_cast<std::size_t>(lev)];
        }
        remap_col_inplace();
        for (int lev = 0; lev < nlev; ++lev) {
          qf[fidx(lev, k)] = col[static_cast<std::size_t>(lev)] *
                             tgt_soa[fidx(lev, k)];
        }
      }
      for (int lev = 0; lev < nlev; ++lev) {
        fdp[fidx(lev, k)] = tgt_soa[fidx(lev, k)];
      }
    }
  });
}

}  // namespace homme
