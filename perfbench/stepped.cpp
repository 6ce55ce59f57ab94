// climate-hero and parallel-dycore: one model::Session stepped back to
// back (a closed loop of one), as Session::run does it — step, forcing,
// checkpoint cadence — with each step timed on its own.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numbers>
#include <vector>

#include "accel/accel_driver.hpp"
#include "probes.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Session builds per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// Of those, how many also run one remap cycle for the determinism check.
constexpr int kDigestRuns = 3;
/// The documented bound between backends and between rank counts, after
/// one remap cycle.
constexpr double kEquivalenceBound = 1e-9;

struct SteppedWorkload {
  const scenario::Scenario* sc = nullptr;
  /// Traced runs only: the extra probes of this workload.
  std::function<void(BenchTracer&, model::Session&, const homme::State&,
                     Outcome&)>
      probes;
  model::SessionConfig cfg;        ///< the measured configuration
  model::SessionConfig reference;  ///< same run on the reference path
  const char* reference_what = "";
  double slo_ms = 0.0;             ///< latency limit of one step request
  double mass_drift_bound = 0.0;   ///< relative dry-mass drift allowed
};

/// Fire seeding forcing, then one remap cycle of steps.
void run_cycle(const scenario::Scenario& sc, model::Session& s) {
  scenario::fire_forcing(sc, s, 0);
  for (int k = 0; k < s.config().remap_freq; ++k) {
    s.step();
    scenario::fire_forcing(sc, s, s.step_count());
  }
}

Outcome run_stepped(const Args& a, BenchTracer& bt,
                    const SteppedWorkload& w) {
  Outcome out;

  // -- set-up, repeated; the first runs double as the determinism check --
  std::vector<double> setup_s;
  std::unique_ptr<model::Session> s;
  std::uint32_t digest0 = 0;
  homme::State after_cycle;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model::SessionConfig cfg = w.cfg;
    if (!cfg.checkpoint_base.empty()) {
      cfg.checkpoint_base += ".s" + std::to_string(rep);
    }
    const auto t0 = Clock::now();
    auto sess = std::make_unique<model::Session>(cfg);
    setup_s.push_back(s_between(t0, Clock::now()));
    if (rep < kDigestRuns) {
      run_cycle(*w.sc, *sess);
      const std::uint32_t d =
          model::state_digest(sess->state(), sess->step_count());
      if (rep == 0) {
        digest0 = d;
        after_cycle = sess->state();
      } else {
        out.check(d == digest0,
                  "final digest differs between runs of one invocation");
      }
      s = std::move(sess);
    }
  }

  {
    model::Session ref(w.reference);
    run_cycle(*w.sc, ref);
    const double diff = max_rel_diff(ref.state(), after_cycle);
    std::fprintf(stderr, "perfbench: %s after one remap cycle: %.3g\n",
                 w.reference_what, diff);
    out.check(diff <= kEquivalenceBound,
              std::string(w.reference_what) + ": max relative difference " +
                  std::to_string(diff) +
                  " after one remap cycle exceeds 1e-9");
  }

  // -- measured region -----------------------------------------------------
  auto* pa = dynamic_cast<accel::PipelineAccelerator*>(s->accelerator(0));
  const int launches0 = pa != nullptr ? pa->launches() : 0;
  const int fallbacks0 = s->fallbacks();
  const auto ckpt0 = s->checkpoint_stats();
  const homme::Diagnostics diag0 = s->diagnose();

  // The traced run alternates traced and untraced blocks of two remap
  // cycles, so drift on the host hits both sides of the overhead ratio.
  const int block = 2 * w.cfg.remap_freq;
  std::vector<double> step_ms[2], req_ms[2];
  std::uint64_t slo_met = 0;
  int steps = 0, attempted_steps = 0;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::seconds(a.seconds);
  while (Clock::now() < stop) {
    const bool traced = a.trace && (steps / block) % 2 == 0;
    obs::Track* trk = bt.track(traced);
    const int fallbacks_before = s->fallbacks();
    ++attempted_steps;
    const auto t0 = Clock::now();
    Clock::time_point t1;
    try {
      {
        obs::ScopedSpan span(trk, "model:step");
        s->step();
        scenario::fire_forcing(*w.sc, *s, s->step_count());
      }
      t1 = Clock::now();
      const double c0 = trk != nullptr ? trk->now() : 0.0;
      if (s->maybe_checkpoint() && trk != nullptr) {
        trk->complete_at("ckpt:save", c0, trk->now() - c0);
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("step failed: ") + e.what());
      break;
    }
    const auto t2 = Clock::now();
    ++steps;
    step_ms[traced].push_back(ms_between(t0, t1));
    req_ms[traced].push_back(ms_between(t0, t2));
    const bool ok = s->fallbacks() == fallbacks_before;
    out.check(ok, "accelerator fell back to the host path");
    if (ok && req_ms[traced].back() <= w.slo_ms) ++slo_met;
  }
  const double wall_s = s_between(start, Clock::now());

  const homme::Diagnostics diag1 = s->diagnose();
  const double drift =
      std::abs(diag1.dry_mass - diag0.dry_mass) / std::abs(diag0.dry_mass);
  const Quartiles q = quartiles(a.trace ? step_ms[1] : step_ms[0]);
  std::fprintf(stderr,
               "perfbench: %d steps, step ms q1/median/q3 %.2f/%.2f/%.2f, "
               "dry-mass drift %.3g\n",
               steps, q.q1, q.median, q.q3, drift);
  out.check(drift <= w.mass_drift_bound,
            "dry-mass drift " + std::to_string(drift) + " exceeds " +
                std::to_string(w.mass_drift_bound));
  const auto violated = scenario::check_invariants(*w.sc, *s);
  out.check(!violated, "scenario invariant: " + violated.value_or(""));

  if (!a.trace) {
    out.end_to_end = {
        {"setup_s", median(setup_s)},
        {"sypd_host", sypd(steps * s->dt(), wall_s)},
        {"step_p50_ms", percentile(step_ms[0], 0.5)},
        {"step_p90_ms", percentile(step_ms[0], 0.9)},
        {"request_p50_ms", percentile(req_ms[0], 0.5)},
        {"request_tail_ms", percentile(req_ms[0], 0.9)},
        {"slo_met_frac", static_cast<double>(slo_met) / attempted_steps},
        {"success_frac", 1.0 - out.error_rate()},
        {"peak_rss_mb", peak_rss_mib()},
    };
    return out;
  }

  const double traced_p50 = percentile(step_ms[1], 0.5);
  out.layer("model.step_ms_p50", traced_p50);
  out.layer("bench.trace_overhead_frac",
            traced_p50 / percentile(step_ms[0], 0.5) - 1.0);
  out.layer("bench.error_rate", out.error_rate());
  out.layer("accel.fallbacks", s->fallbacks() - fallbacks0);
  if (pa != nullptr) out.layer("accel.launches", pa->launches() - launches0);
  const auto ckpt = s->checkpoint_stats();
  const auto saves = ckpt.saves - ckpt0.saves;
  out.layer("ckpt.save_ms", bt.mean_ms("ckpt:save"));
  out.layer("ckpt.saves", static_cast<double>(saves));
  out.layer("ckpt.blocked_saves",
            static_cast<double>(ckpt.blocked_saves - ckpt0.blocked_saves));
  if (saves > 0) {
    out.layer("ckpt.bytes_per_save",
              static_cast<double>(ckpt.bytes_written - ckpt0.bytes_written) /
                  static_cast<double>(saves));
  }

  const homme::State warm = s->state();
  probe_setup_layers(bt, *w.sc, w.cfg, out);
  probe_homme(bt, *s, warm, out);
  w.probes(bt, *s, warm, out);
  return out;
}

/// The baroclinic wave at ne8/L16 on 2 ranks, host backend, overlap
/// exchange, the seed picking where the wave's perturbation sits (the
/// scenario's own IC family).
model::SessionConfig parallel_config(std::uint64_t seed) {
  scenario::Overrides ov;
  ov.ne = 8;
  ov.nlev = 16;
  ov.nranks = 2;
  ov.backend = model::SessionConfig::Backend::kHost;
  model::SessionConfig cfg = scenario::get("baroclinic-wave").config(ov);
  const double lon0 = static_cast<double>(seed % 8) * std::numbers::pi / 4;
  cfg.with_init(scenario::InitSpec::baroclinic(true, 20.0, 300.0, 2.0, lon0))
      .with_exchange(homme::BndryExchange::Mode::kOverlap);
  return cfg;
}

}  // namespace

Outcome run_climate_hero(const Args& a, BenchTracer& bt,
                         const WorkDir& dir) {
  SteppedWorkload w;
  w.sc = &scenario::get("aquaplanet");
  scenario::Overrides ov;
  ov.ne = 8;
  ov.nlev = 16;
  ov.backend = model::SessionConfig::Backend::kPipeline;
  ov.core_groups = 4;
  ov.perturb = 1e-9;  // the Fig. 4 ensemble perturbation
  const int member = 1 + static_cast<int>(a.seed % 8);
  w.cfg = w.sc->config(ov, member);
  w.cfg.with_delta_checkpoints(dir.sub("hero"), /*freq=*/6,
                               /*full_interval=*/4);
  w.reference = w.cfg;
  w.reference.with_backend(model::SessionConfig::Backend::kHost)
      .with_delta_checkpoints("", 0, 0);
  w.reference_what = "pipeline backend vs host backend";
  w.slo_ms = 250.0;
  w.mass_drift_bound = 1e-8;
  w.probes = [&a](BenchTracer& bt, model::Session& s,
                  const homme::State& warm, Outcome& out) {
    probe_physics(bt, s, warm, out);
    probe_accel(bt, *dynamic_cast<accel::PipelineAccelerator*>(
                        s.accelerator(0)),
                warm, out);
    // The gated workloads have no multi-rank session, so the parallel
    // dycore and the exchange are probed here: the exchange on this
    // state split over 2 ranks, the dycore as parallel-dycore runs it.
    probe_net(bt, *model::MeshBundle::build(8, 2), s.dims().nlev, warm, out);
    model::Session parallel(parallel_config(a.seed));
    out.layer("model.parallel_step_ms_p50",
              probe_steps(bt, parallel, 48, "model:parallel_step"));
  };
  return run_stepped(a, bt, w);
}

Outcome run_parallel_dycore(const Args& a, BenchTracer& bt,
                            const WorkDir& /*dir*/) {
  SteppedWorkload w;
  w.sc = &scenario::get("baroclinic-wave");
  w.cfg = parallel_config(a.seed);
  w.reference = w.cfg;
  w.reference.with_ranks(1);
  w.reference_what = "2 ranks vs 1 rank";
  w.slo_ms = 100.0;
  w.mass_drift_bound = 1e-9;
  w.probes = [](BenchTracer& bt, model::Session& s, const homme::State& warm,
                Outcome& out) {
    probe_net(bt, s.bundle(), s.dims().nlev, warm, out);
    out.layer("model.parallel_step_ms_p50",
              out.per_layer["model.step_ms_p50"]);
  };
  return run_stepped(a, bt, w);
}

}  // namespace perfbench
