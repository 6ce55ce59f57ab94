// ensemble-service: an open loop of independent users submitting small
// ensemble members to svc::Server on a fixed, seeded Poisson schedule.
// Every request is timed from when it was due to be sent, so a stall in
// the generator or the server counts against every request behind it.
// ensemble-client: the same server and request mix driven by one user
// who sends the next request when the last one completes (closed loop).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "accel/accel_driver.hpp"
#include "probes.hpp"
#include "scenario/registry.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Offered load: about 30% of what 3 workers complete on a 4-core host.
/// Queueing multiplies any slowdown of a shared host in the request tail,
/// and less so at lower load (README.md).
constexpr double kRatePerS = 25.0;
constexpr int kSteps = 4;
constexpr int kWorkers = 3;
constexpr int kTenants = 4;
/// Latency limit of one request, from its due time.
constexpr double kSloMs = 250.0;
/// Server start-ups per run; setup_s is their median.
constexpr int kSetupReps = 21;

/// One distinct request shape; the seed draws each arrival from these.
struct Shape {
  svc::RunRequest req;
  double dt = 0.0;  ///< model time step, s
};

/// Half the menu names a scenario (4 scenarios x 4 members), half passes
/// a plain config, all 4-step ne4/L8 members on the pipeline backend.
std::vector<Shape> scenario_shapes(const model::MeshBundle& b) {
  std::vector<Shape> out;
  for (const char* name :
       {"baroclinic-wave", "held-suarez", "tracer-advection", "aquaplanet"}) {
    for (int member = 0; member < 4; ++member) {
      Shape sh;
      sh.req.scenario = name;
      sh.req.overrides.ne = 4;
      sh.req.overrides.nlev = 8;
      sh.req.overrides.backend = model::SessionConfig::Backend::kPipeline;
      sh.req.overrides.perturb = 1e-9;
      sh.req.member = member;
      sh.req.steps = kSteps;
      const auto cfg = scenario::get(name).config(sh.req.overrides, member);
      sh.dt = cfg.dt > 0.0 ? cfg.dt : homme::Dycore::stable_dt(b.mesh);
      out.push_back(std::move(sh));
    }
  }
  return out;
}

std::vector<Shape> plain_shapes(const model::MeshBundle& b) {
  using Init = model::SessionConfig::Init;
  const auto base = model::SessionConfig{}.with_ne(4).with_levels(8, 2)
                        .with_backend(model::SessionConfig::Backend::kPipeline);
  std::vector<model::SessionConfig> cfgs = {
      model::SessionConfig(base).with_init(Init::kBaroclinic),
      model::SessionConfig(base).with_init(Init::kSolidBody),
      model::SessionConfig(base).with_init(Init::kIsothermalRest),
      model::SessionConfig(base).with_init(Init::kBaroclinic)
          .with_remap_freq(2),
  };
  std::vector<Shape> out;
  for (auto& cfg : cfgs) {
    Shape sh;
    sh.req.config = cfg;
    sh.req.steps = kSteps;
    sh.dt = homme::Dycore::stable_dt(b.mesh);
    out.push_back(std::move(sh));
  }
  return out;
}

/// A deterministic generator, so the schedule is the same for one seed
/// on every standard library (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

struct Arrival {
  double t_s = 0.0;   ///< due time after the schedule starts
  int shape = 0;      ///< index into the combined menu
  int tenant = 0;
};

/// \p n arrivals of a Poisson schedule over \p seconds, conditioned on
/// the count: n arrival times drawn uniformly and sorted, so every run has
/// enough requests for its tail percentile. Each arrival picks scenario
/// or plain with equal odds, then a shape and a tenant.
std::vector<Arrival> schedule(std::uint64_t seed, int seconds, std::size_t n,
                              int n_scenario, int n_plain) {
  Rng rng(seed);
  std::vector<Arrival> out(n);
  for (Arrival& a : out) a.t_s = rng.uniform() * seconds;
  std::sort(out.begin(), out.end(),
            [](const Arrival& x, const Arrival& y) { return x.t_s < y.t_s; });
  for (Arrival& a : out) {
    const bool named = (rng.next() & 1) != 0;
    a.shape = named ? static_cast<int>(rng.next() % n_scenario)
                    : n_scenario + static_cast<int>(rng.next() % n_plain);
    a.tenant = static_cast<int>(rng.next() % kTenants);
  }
  return out;
}

std::string tenant_name(int t) { return "user" + std::to_string(t); }

std::unique_ptr<svc::Server> start_server(const std::string& ckpt_dir) {
  std::filesystem::create_directories(ckpt_dir);
  svc::ServerConfig cfg;
  cfg.engine.workers = kWorkers;
  cfg.engine.queue_capacity = 256;
  cfg.engine.cg_pools = 1;
  cfg.engine.core_groups_per_pool = 4;
  cfg.engine.placement = svc::EngineConfig::Placement::kPack;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.checkpoint_freq = 2;
  auto server = std::make_unique<svc::Server>(cfg);
  svc::TenantQuota quota;
  quota.soft_active = 6;  // a user's burst past 6 in flight is demoted
  quota.tier = 1;
  quota.throttle_priority = 0;
  for (int t = 0; t < kTenants; ++t) server->add_tenant(tenant_name(t), quota);
  return server;
}

struct Sent {
  Clock::time_point due, call, ret;
  svc::Server::SubmitOutcome outcome;
  std::string name;
  int shape = 0;
  bool traced = false;
};


Outcome run_ensemble(const Args& a, BenchTracer& bt, const WorkDir& dir,
                     bool open_loop) {
  Outcome out;
  const auto bundle = model::MeshBundle::build(4);
  std::vector<Shape> shapes = scenario_shapes(*bundle);
  const int n_scenario = static_cast<int>(shapes.size());
  for (Shape& sh : plain_shapes(*bundle)) shapes.push_back(std::move(sh));
  const int n_plain = static_cast<int>(shapes.size()) - n_scenario;
  // The closed loop takes arrivals in order, ignoring their times, and
  // needs at most one per 5 ms.
  const std::size_t n =
      open_loop ? static_cast<std::size_t>(std::lround(kRatePerS * a.seconds))
                : static_cast<std::size_t>(200 * a.seconds);
  const std::vector<Arrival> arrivals =
      schedule(a.seed, a.seconds, n, n_scenario, n_plain);

  // -- set-up: server start until its first member completes, repeated ----
  std::vector<double> setup_s;
  std::unique_ptr<svc::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    server = start_server(dir.sub("svc" + std::to_string(rep)));
    const auto warm = server->submit(tenant_name(0), "warm",
                                     shapes[static_cast<std::size_t>(
                                                n_scenario)].req);
    out.check(warm.ticket != nullptr &&
                  warm.ticket->wait().state == svc::RunState::kCompleted,
              "warm-up member did not complete: " + warm.reason);
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  // -- measured region: the request generator ----------------------------
  std::vector<Sent> sent;
  sent.reserve(arrivals.size());
  const auto epoch =
      Clock::now() + std::chrono::milliseconds(open_loop ? 20 : 0);
  const auto stop = epoch + std::chrono::seconds(a.seconds);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& arr = arrivals[i];
    Sent s;
    if (open_loop) {
      s.due = epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arr.t_s));
      std::this_thread::sleep_until(s.due);
    } else {
      s.due = Clock::now();
      if (s.due >= stop) break;
    }
    s.name = "r" + std::to_string(i);
    s.shape = arr.shape;
    // Traced and untraced one-second blocks alternate.
    s.traced = a.trace &&
               std::chrono::duration_cast<std::chrono::seconds>(s.due - epoch)
                           .count() %
                       2 ==
                   0;
    s.call = Clock::now();
    try {
      obs::ScopedSpan span(bt.track(s.traced), "svc:submit");
      s.outcome = server->submit(tenant_name(arr.tenant), s.name,
                                 shapes[static_cast<std::size_t>(arr.shape)]
                                     .req);
    } catch (const std::exception& e) {
      s.outcome.reason = e.what();
    }
    s.ret = Clock::now();
    if (!open_loop && s.outcome.ticket != nullptr) s.outcome.ticket->wait();
    sent.push_back(std::move(s));
  }
  server->wait_idle();

  // -- results ---------------------------------------------------------------
  std::vector<double> latency_ms, step_ms[2], queue_ms, exec_ms, submit_ms,
      late_ms;
  std::vector<double> latency_of(sent.size(), -1.0);  // -1: not timed
  std::vector<std::uint32_t> crc(sent.size(), 0);
  std::vector<bool> completed(sent.size(), false);
  std::vector<int> fallbacks(sent.size(), 0);  // accelerator host redos
  std::uint64_t admitted = 0, throttled = 0, rejected = 0;
  double simulated_s = 0.0;
  Clock::time_point last_done = epoch;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    submit_ms.push_back(ms_between(s.call, s.ret));
    late_ms.push_back(ms_between(s.due, s.call));
    switch (s.outcome.admission) {
      case svc::Admission::kAdmitted: ++admitted; break;
      case svc::Admission::kThrottled: ++throttled; break;
      case svc::Admission::kRejected: ++rejected; break;
    }
    if (s.outcome.ticket == nullptr) continue;  // refused: failed below
    const svc::RunResult& r = s.outcome.ticket->wait();
    const svc::MemberStatus m = server->member(s.name);
    if (m.last_state != svc::RunState::kCompleted) continue;
    completed[i] = true;
    crc[i] = m.state_crc;
    fallbacks[i] = r.fallbacks;
    simulated_s += kSteps * shapes[static_cast<std::size_t>(s.shape)].dt;
    if (m.attempts != 1) continue;  // retried: no single-attempt timing
    const double run_ms = (r.queue_wait_s + r.wall_s) * 1000.0;
    latency_of[i] = ms_between(s.due, s.ret) + run_ms;
    latency_ms.push_back(latency_of[i]);
    const auto done = s.ret + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      r.queue_wait_s + r.wall_s));
    if (done > last_done) last_done = done;
    queue_ms.push_back(r.queue_wait_s * 1000.0);
    exec_ms.push_back(r.wall_s * 1000.0);
    step_ms[s.traced].push_back(r.wall_s * 1000.0 / r.steps_done);
  }
  const double window_s = s_between(epoch, last_done);

  // Each completed member's digest must equal that of the same request run
  // alone, on a private engine, after the measured region.
  std::map<int, std::uint32_t> alone;  // shape -> digest
  {
    svc::Engine engine(svc::EngineConfig{.workers = 1});
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const int k = sent[i].shape;
      if (!completed[i] || alone.count(k) != 0) continue;
      alone[k] = engine.submit(shapes[static_cast<std::size_t>(k)].req)
                     ->wait()
                     .state_crc;
    }
  }
  std::uint64_t slo_met = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    if (!completed[i]) {
      out.check(false, "request " + s.name + " did not complete: " +
                           (s.outcome.ticket == nullptr
                                ? s.outcome.reason
                                : server->member(s.name).error));
      continue;
    }
    const bool same = crc[i] == alone[s.shape];
    const bool ok = same && fallbacks[i] == 0;
    out.check(ok, "request " + s.name +
                      (same ? ": the accelerator fell back to the host path"
                            : ": digest differs from the same request run "
                              "alone"));
    if (ok && latency_of[i] >= 0.0 && latency_of[i] <= kSloMs) ++slo_met;
  }

  const svc::EngineStats st = server->engine_stats();
  const std::uint64_t retries = server->retries();
  server.reset();

  if (!a.trace) {
    out.end_to_end = {
        {"setup_s", median(setup_s)},
        {"sypd_host", sypd(simulated_s, window_s)},
        {"step_p50_ms", percentile(step_ms[0], 0.5)},
        {"step_p90_ms", percentile(step_ms[0], 0.9)},
        {"request_p50_ms", percentile(latency_ms, 0.5)},
        {"request_tail_ms", percentile(latency_ms, open_loop ? 0.99 : 0.9)},
        {"slo_met_frac", static_cast<double>(slo_met) /
                             static_cast<double>(sent.size())},
        {"success_frac", 1.0 - out.error_rate()},
        {"peak_rss_mb", peak_rss_mib()},
    };
    return out;
  }

  out.layer("svc.submit_ms_p99", percentile(submit_ms, 0.99));
  out.layer("svc.queue_wait_ms_p50", percentile(queue_ms, 0.5));
  out.layer("svc.queue_wait_ms_p99", percentile(queue_ms, 0.99));
  out.layer("svc.exec_ms_p50", percentile(exec_ms, 0.5));
  out.layer("svc.exec_ms_p99", percentile(exec_ms, 0.99));
  out.layer("svc.utilization", st.utilization());
  out.layer("accel.fallbacks",
            std::accumulate(fallbacks.begin(), fallbacks.end(), 0));
  out.layer("svc.admitted", static_cast<double>(admitted));
  out.layer("svc.throttled", static_cast<double>(throttled));
  out.layer("svc.rejected", static_cast<double>(rejected));
  out.layer("svc.retries", static_cast<double>(retries));
  out.layer("svc.checkpoint_saves", static_cast<double>(st.checkpoint_saves));
  out.layer("svc.resident_bytes_per_member", st.resident_bytes_per_member());
  out.layer("svc.cg_placed_members", static_cast<double>(st.placed_members));
  out.layer("svc.cg_contended_ops", static_cast<double>(st.cg_contended_ops));
  out.layer("ckpt.saves", static_cast<double>(st.checkpoint_saves));
  if (st.checkpoint_saves > 0) {
    out.layer("ckpt.bytes_per_save",
              static_cast<double>(st.checkpoint_bytes) /
                  static_cast<double>(st.checkpoint_saves));
  }
  out.layer("bench.gen_late_ms_p99", percentile(late_ms, 0.99));
  double late_max = 0.0;
  for (double l : late_ms) late_max = std::max(late_max, l);
  out.layer("bench.gen_late_ms_max", late_max);
  out.layer("bench.trace_overhead_frac", percentile(step_ms[1], 0.5) /
                                             percentile(step_ms[0], 0.5) -
                                             1.0);
  out.layer("bench.error_rate", out.error_rate());

  // Layer probes on one member of each kind, outside the server.
  const Shape& wave = shapes[0];
  const scenario::Scenario& wave_sc = scenario::get(wave.req.scenario);
  const model::SessionConfig wave_cfg =
      wave_sc.config(wave.req.overrides, wave.req.member);
  probe_setup_layers(bt, wave_sc, wave_cfg, out);
  model::Session probe(wave_cfg, bundle);
  out.layer("model.step_ms_p50", probe_steps(bt, probe, 24, "model:step"));
  const homme::State warm = probe.state();
  probe_homme(bt, probe, warm, out);
  if (auto* pa = dynamic_cast<accel::PipelineAccelerator*>(
          probe.accelerator(0))) {
    probe_accel(bt, *pa, warm, out);
  }
  const Shape& aqua = shapes[static_cast<std::size_t>(n_scenario) - 1];
  model::Session moist(
      scenario::get(aqua.req.scenario).config(aqua.req.overrides,
                                              aqua.req.member),
      bundle);
  moist.run(kSteps);
  probe_physics(bt, moist, moist.state(), out);
  return out;
}

}  // namespace

Outcome run_ensemble_service(const Args& a, BenchTracer& bt,
                             const WorkDir& dir) {
  return run_ensemble(a, bt, dir, /*open_loop=*/true);
}

Outcome run_ensemble_client(const Args& a, BenchTracer& bt,
                            const WorkDir& dir) {
  return run_ensemble(a, bt, dir, /*open_loop=*/false);
}

}  // namespace perfbench
