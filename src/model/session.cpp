#include "model/session.hpp"

#include <cstdio>
#include <span>
#include <utility>

#include "accel/accel_driver.hpp"
#include "homme/checkpoint.hpp"
#include "homme/init.hpp"
#include "homme/local_state.hpp"
#include "sw/cg_pool.hpp"

namespace model {

// -- SessionConfig -----------------------------------------------------------

homme::DycoreConfig SessionConfig::dycore_config() const {
  homme::DycoreConfig c;
  c.dt = dt;
  c.remap_freq = remap_freq;
  c.nu = nu;
  c.limit_tracers = limit_tracers;
  c.hypervis_on = hypervis_on;
  return c;
}

homme::Dims SessionConfig::dims() const {
  homme::Dims d;
  d.nlev = nlev;
  d.qsize = qsize;
  d.moist = moist;
  return d;
}

void SessionConfig::validate() const {
  if (ne < 1) throw ConfigError("SessionConfig: ne must be >= 1");
  if (radius <= 0.0) throw ConfigError("SessionConfig: radius must be > 0");
  if (nlev < 1) throw ConfigError("SessionConfig: nlev must be >= 1");
  if (qsize < 0) throw ConfigError("SessionConfig: qsize must be >= 0");
  if (dt < 0.0) throw ConfigError("SessionConfig: dt must be >= 0");
  if (remap_freq < 1) {
    throw ConfigError("SessionConfig: remap_freq must be >= 1");
  }
  if (nranks < 1) throw ConfigError("SessionConfig: nranks must be >= 1");
  if (nranks > 6 * ne * ne) {
    throw ConfigError("SessionConfig: more ranks than elements (" +
                      std::to_string(nranks) + " > " +
                      std::to_string(6 * ne * ne) + ")");
  }
  if (moist && qsize < 1) {
    throw ConfigError("SessionConfig: moist dynamics need tracer 0 "
                      "(specific humidity); qsize must be >= 1");
  }
  if (physics && qsize < 1) {
    throw ConfigError("SessionConfig: physics needs tracer 0 (specific "
                      "humidity); qsize must be >= 1");
  }
  if (physics_dt < 0.0) {
    throw ConfigError("SessionConfig: physics_dt must be >= 0");
  }
  if (!init_spec.name.empty() && !init_spec.engaged()) {
    throw ConfigError("SessionConfig: init_spec \"" + init_spec.name +
                      "\" names an IC but has no generator");
  }
  if (init_spec.member < 0) {
    throw ConfigError("SessionConfig: init_spec.member must be >= 0");
  }
  if (init_spec.perturb < 0.0) {
    throw ConfigError("SessionConfig: init_spec.perturb must be >= 0");
  }
  if (checkpoint_freq < 0) {
    throw ConfigError("SessionConfig: checkpoint_freq must be >= 0");
  }
  if (checkpoint_freq > 0 && checkpoint_base.empty()) {
    throw ConfigError("SessionConfig: checkpoint cadence needs a "
                      "checkpoint_base path");
  }
  if (ckpt_full_interval < 0) {
    throw ConfigError("SessionConfig: ckpt_full_interval must be >= 0");
  }
  if (watchdog_s < 0.0) {
    throw ConfigError("SessionConfig: watchdog_s must be >= 0");
  }
  if (core_groups < 1) {
    throw ConfigError("SessionConfig: core_groups must be >= 1");
  }
  if (cg_pool == nullptr && !cg_affinity.empty()) {
    throw ConfigError("SessionConfig: cg_affinity without a cg_pool");
  }
  if (cg_pool != nullptr) {
    if (cg_affinity.empty()) {
      throw ConfigError("SessionConfig: cg_pool needs a non-empty "
                        "cg_affinity");
    }
    for (int i : cg_affinity) {
      if (i < 0 || i >= cg_pool->size()) {
        throw ConfigError("SessionConfig: cg_affinity index " +
                          std::to_string(i) + " outside pool of " +
                          std::to_string(cg_pool->size()) + " core groups");
      }
    }
  }
}

// -- state digest ------------------------------------------------------------

std::uint32_t state_digest(const homme::State& state, int step_count) {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(state.size() * 6 + 2);
  auto add = [&crcs](std::span<const double> v) {
    crcs.push_back(homme::crc32(v.data(), v.size() * sizeof(double)));
  };
  for (const auto& e : state) {
    add(e.u1.span());
    add(e.u2.span());
    add(e.T.span());
    add(e.dp.span());
    add(e.qdp.span());
    add(e.phis.span());
  }
  crcs.push_back(static_cast<std::uint32_t>(state.size()));
  crcs.push_back(static_cast<std::uint32_t>(step_count));
  return homme::crc32(crcs.data(), crcs.size() * sizeof(std::uint32_t));
}

// -- MeshBundle --------------------------------------------------------------

std::shared_ptr<const MeshBundle> MeshBundle::build(int ne, int nranks,
                                                    double radius) {
  auto b = std::make_shared<MeshBundle>();
  b->mesh = mesh::CubedSphere::build(ne, radius);
  b->partition = mesh::Partition::build(b->mesh, nranks);
  b->plan = mesh::CommPlan::build(b->mesh, b->partition);
  b->ne = ne;
  b->nranks = nranks;
  return b;
}

std::size_t MeshBundle::bytes() const {
  std::size_t n = sizeof(MeshBundle);
  const std::size_t nelem = static_cast<std::size_t>(mesh.nelem());
  n += nelem * sizeof(mesh::ElementGeom);             // geom_
  n += nelem * sizeof(std::array<int, mesh::kNpp>);   // nodes_
  // node_elems_: one (elem, gidx) pair per GLL point of every element.
  n += nelem * mesh::kNpp * sizeof(std::pair<int, int>);
  n += partition.elem_rank.size() * sizeof(int);
  for (const auto& re : partition.rank_elems) n += re.size() * sizeof(int);
  for (const auto& neighbors : plan.per_rank) {
    for (const auto& nb : neighbors) {
      n += sizeof(nb) + nb.nodes.size() * sizeof(int);
    }
  }
  return n;
}

// -- Session -----------------------------------------------------------------

Session::Session(SessionConfig cfg)
    : Session(std::move(cfg), nullptr) {}

Session::Session(SessionConfig cfg, std::shared_ptr<const MeshBundle> bundle)
    : cfg_(std::move(cfg)), bundle_(std::move(bundle)) {
  cfg_.validate();
  if (bundle_ == nullptr) {
    bundle_ = MeshBundle::build(cfg_.ne, cfg_.nranks, cfg_.radius);
  } else if (!bundle_->compatible(cfg_)) {
    throw ConfigError("Session: mesh bundle is ne" +
                      std::to_string(bundle_->ne) + "/" +
                      std::to_string(bundle_->nranks) +
                      " ranks, config wants ne" + std::to_string(cfg_.ne) +
                      "/" + std::to_string(cfg_.nranks));
  }
  build();
}

Session::~Session() = default;

void Session::build() {
  dims_ = cfg_.dims();

  // Initial condition on the global mesh. An engaged InitSpec (the
  // scenario:: path — vortex seeds, perturbed ensemble members) replaces
  // the builtin enum wholesale, tracer fill included.
  if (cfg_.init_spec.engaged()) {
    state_ = cfg_.init_spec.generate(bundle_->mesh, dims_, cfg_.init_spec);
    if (cfg_.init_spec.tracers && cfg_.qsize > 0) {
      homme::init_tracers(bundle_->mesh, dims_, state_);
    }
  } else {
    switch (cfg_.init) {
      case SessionConfig::Init::kBaroclinic:
        state_ = homme::baroclinic(bundle_->mesh, dims_);
        break;
      case SessionConfig::Init::kSolidBody:
        state_ = homme::solid_body_rotation(bundle_->mesh, dims_);
        break;
      case SessionConfig::Init::kIsothermalRest:
        state_ = homme::isothermal_rest(bundle_->mesh, dims_);
        break;
    }
    if (cfg_.init_tracers && cfg_.qsize > 0) {
      homme::init_tracers(bundle_->mesh, dims_, state_);
    }
  }
  wire(cfg_.dycore_config());
}

void Session::wire(const homme::DycoreConfig& dcfg) {
  tracer_ = std::make_unique<obs::Tracer>(cfg_.trace_domain);
  tracer_->enable(cfg_.trace);
  const MeshBundle& b = *bundle_;

  // One rank steps the whole mesh in place; N ranks get one driver per
  // rank, run on the mini-MPI cluster.
  if (cfg_.nranks >= 2) {
    cluster_ = std::make_unique<net::Cluster>(cfg_.nranks);
    cluster_->set_fault_plan(cfg_.faults);
    cluster_->set_watchdog(cfg_.watchdog_s);
    cluster_->set_tracer(tracer_.get());
    for (int r = 0; r < cfg_.nranks; ++r) {
      dycores_.push_back(std::make_unique<homme::Dycore>(
          b.mesh, b.partition, b.plan, dims_, dcfg, r, cfg_.exchange));
    }
  } else {
    dycores_.push_back(std::make_unique<homme::Dycore>(b.mesh, dims_, dcfg));
  }
  for (auto& d : dycores_) {
    d->set_tracer(tracer_.get());
    d->set_step_count(step_count_);
  }

  if (cfg_.backend == SessionConfig::Backend::kPipeline) {
    if (cluster_ == nullptr) {
      accels_.push_back(
          std::make_unique<accel::PipelineAccelerator>(b.mesh, dims_));
      accels_[0]->set_tracer(tracer_.get(), "accel");
      // A fork shares its parent's pool handle (per-group locks make that
      // safe) or builds its own private pool.
      if (cfg_.cg_pool != nullptr) {
        accels_[0]->set_cg_pool(cfg_.cg_pool, cfg_.cg_affinity);
      } else if (cfg_.core_groups > 1) {
        accels_[0]->use_core_groups(cfg_.core_groups);
      }
    } else {
      // Ranks are the MPE-level decomposition: with N > 1 core groups
      // (or an engine-provided pool) all ranks share one pool and rank
      // r's elements feed the pipeline on group affinity[r % N],
      // contending on the shared memory controller. Ranks step on
      // cluster threads, so sampled stream counts (and modeled cycles)
      // follow real concurrency; results stay bit-identical.
      std::shared_ptr<sw::CgPool> pool = cfg_.cg_pool;
      std::vector<int> affinity = cfg_.cg_affinity;
      if (pool == nullptr && cfg_.core_groups > 1) {
        pool = std::make_shared<sw::CgPool>(cfg_.core_groups);
        affinity.resize(static_cast<std::size_t>(cfg_.core_groups));
        for (int i = 0; i < cfg_.core_groups; ++i) {
          affinity[static_cast<std::size_t>(i)] = i;
        }
        pool->set_tracer(tracer_.get(), sw::CoreGroup::kDefaultTracePid,
                         "accel");
      }
      for (int r = 0; r < cfg_.nranks; ++r) {
        accels_.push_back(std::make_unique<accel::PipelineAccelerator>(
            b.mesh, dims_,
            b.partition.rank_elems[static_cast<std::size_t>(r)]));
        accels_.back()->set_tracer(tracer_.get(),
                                   "accel.r" + std::to_string(r), r);
        if (pool != nullptr) {
          accels_.back()->set_cg_pool(
              pool, {affinity[static_cast<std::size_t>(r) % affinity.size()]});
        }
      }
    }
    for (std::size_t r = 0; r < accels_.size(); ++r) {
      accels_[r]->set_fault_plan(cfg_.faults);
      dycores_[r]->attach_accelerator(accels_[r].get());
    }
  }

  if (cfg_.physics) {
    physics_ = std::make_unique<phys::PhysicsDriver>(b.mesh, dims_,
                                                     cfg_.physics_cfg);
  }
  if (cfg_.monitor) {
    monitor_ = std::make_unique<homme::StateMonitor>(dims_);
  }
  if (!cfg_.checkpoint_base.empty()) {
    ckpt_writer_ = std::make_unique<homme::AsyncCheckpointWriter>(
        cfg_.checkpoint_base, cfg_.ckpt_full_interval);
  }
}

Session::Session(const Session& parent, const std::string& checkpoint_base,
                 ForkTag)
    : cfg_(parent.cfg_),
      bundle_(parent.bundle_),
      dims_(parent.dims_),
      step_count_(parent.step_count_),
      // The fork itself: alias every chunk of the parent's state. The
      // child's (or parent's) first write to a field un-shares just that
      // chunk.
      state_(parent.state_) {
  // A child never inherits the parent's checkpoint chain — same base
  // would mean both sessions overwrite one file set.
  if (checkpoint_base.empty()) {
    cfg_.checkpoint_freq = 0;
    cfg_.checkpoint_base.clear();
  } else {
    cfg_.checkpoint_base = checkpoint_base;
  }
  homme::DycoreConfig dcfg = cfg_.dycore_config();
  dcfg.dt = parent.dt();  // resolved values, not the auto markers
  dcfg.nu = parent.dycores_[0]->nu();
  wire(dcfg);
}

std::unique_ptr<Session> Session::fork(
    const std::string& checkpoint_base) const {
  return std::unique_ptr<Session>(
      new Session(*this, checkpoint_base, ForkTag{}));
}

double Session::dt() const { return dycores_[0]->dt(); }

void Session::step_dynamics() {
  if (cluster_ == nullptr) {
    dycores_[0]->step(state_);
    return;
  }
  // Per-rank views alias the global state's chunks (COW handle copies);
  // only a completed step is scattered back, so a step that throws leaves
  // the session at its last good state.
  const mesh::Partition& part = bundle_->partition;
  std::vector<homme::State> locals;
  locals.reserve(dycores_.size());
  for (int r = 0; r < cfg_.nranks; ++r) {
    locals.push_back(homme::gather_local(part, r, state_));
  }
  try {
    cluster_->run([&](net::Rank& r) {
      const auto i = static_cast<std::size_t>(r.rank());
      dycores_[i]->step(r, locals[i]);
    });
  } catch (...) {
    for (auto& d : dycores_) d->set_step_count(step_count_);
    throw;
  }
  for (int r = 0; r < cfg_.nranks; ++r) {
    homme::scatter_local(part, r, locals[static_cast<std::size_t>(r)],
                         state_);
  }
}

void Session::step() {
  step_dynamics();
  if (physics_ != nullptr) {
    const double pdt = cfg_.physics_dt > 0.0 ? cfg_.physics_dt : dt();
    phys_stats_ = physics_->step(state_, pdt);
  }
  ++step_count_;
  if (monitor_ != nullptr) {
    if (auto why = monitor_->check(state_)) throw ModelBlowup(*why);
  }
}

void Session::run(int n) {
  for (int i = 0; i < n; ++i) {
    step();
    maybe_checkpoint();
  }
}

bool Session::checkpoint_now() {
  if (ckpt_writer_ == nullptr) return false;
  ckpt_writer_->save(checkpoint_info(), state_);
  return true;
}

bool Session::maybe_checkpoint() {
  if (cfg_.checkpoint_freq <= 0 || step_count_ % cfg_.checkpoint_freq != 0) {
    return false;
  }
  return checkpoint_now();
}

bool Session::can_resume() const {
  if (ckpt_writer_ == nullptr) return false;
  std::FILE* f = std::fopen((cfg_.checkpoint_base + ".full").c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

bool Session::try_resume() {
  if (!can_resume()) return false;
  restore();
  return true;
}

homme::Diagnostics Session::diagnose() const {
  return dycores_[0]->diagnose(state_);
}

void Session::set_state(const homme::State& global) {
  if (global.size() != state_.size()) {
    throw ConfigError("Session::set_state: state has " +
                      std::to_string(global.size()) + " elements, mesh has " +
                      std::to_string(state_.size()));
  }
  state_ = global;
}

homme::CheckpointInfo Session::checkpoint_info() const {
  homme::CheckpointInfo info;
  info.nelem = state_.size();
  info.dims = dims_;
  info.config = cfg_.dycore_config();
  info.config.dt = dycores_[0]->dt();  // the resolved (auto-picked) values
  info.config.nu = dycores_[0]->nu();
  info.step_count = step_count_;
  info.rng_seed = cfg_.faults != nullptr ? cfg_.faults->seed() : 0;
  return info;
}

void Session::restore() {
  if (ckpt_writer_ == nullptr) {
    throw ConfigError("Session::restore(): no checkpoint_base configured");
  }
  ckpt_writer_->drain();  // the chain on disk must include every save
  homme::State loaded;
  const homme::CheckpointInfo info =
      homme::DeltaCheckpointWriter::restore_chain(ckpt_writer_->base(),
                                                  loaded);
  if (info.dims.nlev != dims_.nlev || info.dims.qsize != dims_.qsize ||
      info.dims.moist != dims_.moist) {
    throw homme::CheckpointError(
        "Session::restore: dims mismatch (file nlev=" +
        std::to_string(info.dims.nlev) + " qsize=" +
        std::to_string(info.dims.qsize) + ", session nlev=" +
        std::to_string(dims_.nlev) + " qsize=" +
        std::to_string(dims_.qsize) + ")");
  }
  if (info.nelem != state_.size()) {
    throw homme::CheckpointError(
        "Session::restore: element count mismatch (file has " +
        std::to_string(info.nelem) + ", session owns " +
        std::to_string(state_.size()) + ")");
  }
  if (info.config.dt != dt() || info.config.nu != dycores_[0]->nu() ||
      info.config.remap_freq != cfg_.remap_freq) {
    throw homme::CheckpointError(
        "Session::restore: config mismatch (file dt=" +
        std::to_string(info.config.dt) + " nu=" +
        std::to_string(info.config.nu) + " remap_freq=" +
        std::to_string(info.config.remap_freq) + ")");
  }
  state_ = std::move(loaded);
  step_count_ = static_cast<int>(info.step_count);
  for (auto& d : dycores_) d->set_step_count(step_count_);
}

homme::StoreStats Session::store_stats() const { return state_.stats(); }

homme::AsyncCheckpointWriter::Stats Session::checkpoint_stats() const {
  return ckpt_writer_ != nullptr ? ckpt_writer_->stats()
                                 : homme::AsyncCheckpointWriter::Stats{};
}

int Session::fallbacks() const {
  int n = 0;
  for (const auto& a : accels_) n += a->fallbacks();
  return n;
}

homme::StepAccelerator* Session::accelerator(int rank) const {
  const auto i = static_cast<std::size_t>(rank);
  return i < accels_.size() ? accels_[i].get() : nullptr;
}

}  // namespace model
