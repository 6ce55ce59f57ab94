#include "probes.hpp"

#include <memory>
#include <vector>

#include "accel/accel_driver.hpp"
#include "homme/bndry.hpp"
#include "homme/driver.hpp"
#include "homme/dss.hpp"
#include "homme/euler.hpp"
#include "homme/hypervis.hpp"
#include "homme/local_state.hpp"
#include "homme/remap.hpp"
#include "homme/rhs.hpp"
#include "net/mini_mpi.hpp"
#include "physics/driver.hpp"

namespace perfbench {

namespace {

/// Timed calls per probe, after one untimed call that warms caches and
/// un-shares the copy-on-write chunks of the private state copy.
constexpr int kReps = 8;

template <typename Fn>
void timed(BenchTracer& bt, const char* span, Fn&& fn) {
  fn();
  for (int i = 0; i < kReps; ++i) {
    obs::ScopedSpan s(bt.track(), span);
    fn();
  }
}

}  // namespace

void probe_setup_layers(BenchTracer& bt, const scenario::Scenario& sc,
                        const model::SessionConfig& cfg, Outcome& out) {
  for (int i = 0; i < 3; ++i) {
    std::shared_ptr<const model::MeshBundle> bundle;
    {
      obs::ScopedSpan s(bt.track(), "mesh:bundle_build");
      bundle = model::MeshBundle::build(cfg.ne, cfg.nranks, cfg.radius);
    }
    {
      obs::ScopedSpan s(bt.track(), "scenario:init");
      scenario::initial_state(sc, bundle->mesh, cfg.dims(),
                              cfg.init_spec.member);
    }
    obs::ScopedSpan s(bt.track(), "model:session_build");
    model::Session session(cfg, bundle);
  }
  out.layer("mesh.bundle_build_ms", bt.mean_ms("mesh:bundle_build"));
  out.layer("scenario.init_ms", bt.mean_ms("scenario:init"));
  out.layer("model.session_build_ms", bt.mean_ms("model:session_build"));
}

void probe_homme(BenchTracer& bt, const model::Session& s,
                 const homme::State& warm, Outcome& out) {
  const mesh::CubedSphere& m = s.mesh();
  const homme::Dims& d = s.dims();
  // The dycore's own dt and hyperviscosity for this mesh and config.
  const homme::Dycore dy(m, d, s.config().dycore_config());
  const double dt = dy.dt(), nu = dy.nu();

  homme::State work = warm;
  homme::State rhs_out = warm;
  timed(bt, "homme:rhs", [&] {
    homme::compute_and_apply_rhs(m, d, work, work, dt, rhs_out);
  });
  if (d.qsize > 0) {
    timed(bt, "homme:euler", [&] {
      homme::euler_step(m, d, work, dt, s.config().limit_tracers);
    });
  }
  timed(bt, "homme:hypervis", [&] {
    homme::hypervis_dp2(m, d, work, nu, dt);
    homme::biharmonic_dp3d(m, d, work, nu, dt);
  });
  timed(bt, "homme:remap", [&] { homme::vertical_remap(m, d, work); });
  std::vector<double*> T = homme::field_ptrs(work, &homme::ElementState::T);
  timed(bt, "homme:dss", [&] { homme::dss_levels(m, T, d.nlev); });

  out.layer("homme.rhs_ms", bt.mean_ms("homme:rhs"));
  out.layer("homme.euler_ms", bt.mean_ms("homme:euler"));
  out.layer("homme.hypervis_ms", bt.mean_ms("homme:hypervis"));
  out.layer("homme.remap_ms", bt.mean_ms("homme:remap"));
  out.layer("homme.dss_ms", bt.mean_ms("homme:dss"));
}

void probe_physics(BenchTracer& bt, const model::Session& s,
                   const homme::State& warm, Outcome& out) {
  const model::SessionConfig& cfg = s.config();
  phys::PhysicsDriver physics(s.mesh(), s.dims(), cfg.physics_cfg);
  const double dt = cfg.physics_dt > 0.0 ? cfg.physics_dt : s.dt();
  homme::State work = warm;
  timed(bt, "physics:step", [&] { physics.step(work, dt); });
  out.layer("physics.step_ms", bt.mean_ms("physics:step"));
  out.layer("physics.columns",
            static_cast<double>(s.mesh().nelem()) * mesh::kNpp);
}

void probe_accel(BenchTracer& bt, accel::PipelineAccelerator& pa,
                 const homme::State& warm, Outcome& out) {
  homme::State work = warm;
  timed(bt, "accel:remap", [&] { pa.vertical_remap(work); });
  const sw::KernelStats& st = pa.last_stats();
  out.layer("accel.remap_ms", bt.mean_ms("accel:remap"));
  out.layer("sw.remap_cycles", st.cycles);
  out.layer("sw.dma_bytes", static_cast<double>(st.totals.total_dma_bytes()));
  out.layer("sw.dma_reuse_frac", st.reuse_fraction());
  out.layer("sw.ldm_peak_bytes",
            static_cast<double>(st.totals.ldm_peak_bytes));
  out.layer("sw.mc_stall_cycles",
            static_cast<double>(st.totals.mc_stall_cycles));
}

void probe_net(BenchTracer& bt, const model::MeshBundle& b, int nlev,
               const homme::State& warm, Outcome& out) {
  const int nranks = b.nranks;
  std::vector<std::unique_ptr<homme::BndryExchange>> ex;
  std::vector<homme::State> locals;
  for (int r = 0; r < nranks; ++r) {
    ex.push_back(std::make_unique<homme::BndryExchange>(b.mesh, b.partition,
                                                        b.plan, r));
    locals.push_back(homme::gather_local(b.partition, r, warm));
  }
  obs::Track* trk = bt.track();
  net::Cluster cluster(nranks);
  cluster.run([&](net::Rank& r) {
    const auto i = static_cast<std::size_t>(r.rank());
    std::vector<double*> T =
        homme::field_ptrs(locals[i], &homme::ElementState::T);
    const auto mode = homme::BndryExchange::Mode::kOverlap;
    ex[i]->dss_levels(r, T, nlev, mode);
    for (int k = 0; k < kReps; ++k) {
      r.barrier();
      // Rank 0 owns the bench track while the main thread waits in run().
      obs::ScopedSpan span(r.rank() == 0 ? trk : nullptr, "net:dss");
      ex[i]->dss_levels(r, T, nlev, mode);
    }
  });
  double msg = 0.0, copy = 0.0;
  for (const auto& e : ex) {
    msg += static_cast<double>(e->last_msg_bytes());
    copy += static_cast<double>(e->last_copy_bytes());
  }
  out.layer("net.dss_ms", bt.mean_ms("net:dss"));
  out.layer("net.msg_bytes_per_dss", msg);
  out.layer("net.copy_bytes_per_dss", copy);
}

double probe_steps(BenchTracer& bt, model::Session& s, int steps,
                   const char* span) {
  std::vector<double> ms;
  for (int i = 0; i < steps; ++i) {
    const auto t0 = Clock::now();
    {
      obs::ScopedSpan sp(bt.track(), span);
      s.step();
    }
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

}  // namespace perfbench
