#pragma once

#include <memory>

#include "homme/exchange.hpp"
#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"
#include "obs/trace.hpp"

/// \file driver.hpp
/// prim_run — the dynamics driver. One dynamics step is:
///   1. SSP-RK3 integration of the primitive equations
///      (three compute_and_apply_rhs evaluations, each ending in DSS),
///   2. an euler_step tracer subcycle,
///   3. nabla^4 hyperviscosity (hypervis_dp2 + biharmonic_dp3d),
///   4. every remap_freq steps, vertical_remap back to reference levels.
/// This is the structure the paper's timers break into the six Table 1
/// kernels.
///
/// There is one driver at every scale. It steps the elements its
/// homme::Exchange owns: the whole mesh on one rank, or rank r's share of
/// an SFC partition with every DSS routed through bndry_exchangev
/// (original or redesigned overlap mode) over the threaded mini-MPI —
/// the configuration the paper scales to 10 million cores. The step, its
/// kernels and their arithmetic are the same either way; N-rank results
/// differ from one rank only by the reassociated DSS node sums.

namespace homme {

struct DycoreConfig {
  double dt = 0.0;         ///< dynamics time step, s (0: pick stable_dt)
  int remap_freq = 3;      ///< vertical remap cadence, steps
  double nu = -1.0;        ///< nabla^4 coefficient (m^4/s); <0: auto
  bool limit_tracers = true;
  bool hypervis_on = true;
};

/// Hook for offloading step phases to an accelerator backend (the
/// accel:: kernel pipeline in this repo). The dycore stays ignorant of
/// how the work runs — an attached accelerator simply replaces the host
/// implementation of a phase with a bit-compatible one.
class StepAccelerator {
 public:
  virtual ~StepAccelerator() = default;
  /// Replace homme::vertical_remap for the whole state.
  virtual void vertical_remap(State& s) = 0;
};

/// Conservation / sanity diagnostics of a state.
struct Diagnostics {
  double dry_mass = 0.0;      ///< integral of dp dA (total air mass * g)
  double total_energy = 0.0;  ///< integral of (cp T + KE) dp dA / g
  double max_wind = 0.0;      ///< max |u| (m/s)
  double min_dp = 0.0;        ///< min layer thickness (sanity: > 0)
  double max_t = 0.0, min_t = 0.0;
};

class Dycore {
 public:
  /// The whole mesh on one rank.
  Dycore(const mesh::CubedSphere& m, const Dims& d, DycoreConfig cfg);
  /// Rank \p rank of \p part: steps a state holding the rank's elements
  /// in Partition::rank_elems order (homme::gather_local). Every rank
  /// builds its own driver; dt and nu resolve exactly as on one rank.
  Dycore(const mesh::CubedSphere& m, const mesh::Partition& part,
         const mesh::CommPlan& plan, const Dims& d, DycoreConfig cfg,
         int rank, BndryExchange::Mode mode = BndryExchange::Mode::kOverlap);

  /// Advance one dynamics step of the elements this driver owns.
  void step(State& s);
  /// The same step, collective over \p r's cluster: call from every rank
  /// with its own driver and state.
  void step(net::Rank& r, State& s);
  /// Advance \p n steps.
  void run(State& s, int n);

  /// Diagnostics of a whole-mesh state (any driver of the mesh gives the
  /// same answer).
  Diagnostics diagnose(const State& s) const;

  double dt() const { return cfg_.dt; }
  double nu() const { return cfg_.nu; }
  /// Smallest GLL spacing, m.
  double min_dx() const { return min_dx_; }

  /// A conservative CFL-stable time step for wind + gravity-wave speed
  /// \p cmax (m/s) on mesh \p m.
  static double stable_dt(const mesh::CubedSphere& m, double cmax = 400.0);

  /// Route supported step phases through \p accel (nullptr detaches).
  /// The accelerator must outlive the dycore (not owned).
  void attach_accelerator(StepAccelerator* accel) { accel_ = accel; }

  /// Report step phases (dyn:step > dyn:rhs_stage x3 / dyn:euler /
  /// dyn:hypervis / dyn:remap) on \p t: the "dycore" track (pid 0) on one
  /// rank; on rank r the "rank<r>" track (pid r) the net layer shares when
  /// the cluster has the same tracer, so dyn:step > bndry:wait_unpack >
  /// net:recv nest on one timeline. nullptr detaches. On a rank, call it
  /// from the rank's own thread or before the cluster runs.
  void set_tracer(obs::Tracer* t);

  /// Steps taken so far (drives the vertical-remap cadence).
  int step_count() const { return step_count_; }
  /// Rewind/advance the step counter — restoring a checkpoint must realign
  /// the remap cadence or the restarted run diverges from the straight one.
  void set_step_count(int n) { step_count_ = n; }

 private:
  Dycore(const mesh::CubedSphere& m, std::unique_ptr<Exchange> ex,
         const Dims& d, DycoreConfig cfg);

  std::unique_ptr<Exchange> ex_;
  Dims dims_;
  DycoreConfig cfg_;
  double min_dx_;
  int step_count_ = 0;
  StepAccelerator* accel_ = nullptr;
  obs::Track* trk_ = nullptr;
  State stage1_, stage2_;
};

}  // namespace homme
