#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "homme/bndry.hpp"
#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"
#include "obs/trace.hpp"
#include "physics/driver.hpp"
#include "scenario/init_spec.hpp"
#include "sw/fault.hpp"

/// \file session.hpp
/// model::Session — the one front door to a simulation.
///
/// Before this facade every driver (13 benches, the examples, any new
/// workload) re-assembled the same parts by hand: build a mesh, build a
/// partition and comm plan, build one dycore per rank, construct a
/// PipelineAccelerator with the right geom_map, wire the tracer into
/// every layer. A Session subsumes that construction soup behind one
/// SessionConfig: resolution, decomposition, exchange mode, accelerator
/// backend, physics, fault plan and checkpoint cadence are *config
/// values*, not different call sites. The svc:: ensemble engine runs
/// many Sessions concurrently over shared immutable MeshBundles.
///
/// A Session keeps one global homme::State (mesh element order) at every
/// rank count, and only the dynamics step knows about ranks: one rank
/// steps it in place; N ranks gather COW per-rank views, step them
/// collectively on the mini-MPI cluster and scatter them back. Physics,
/// the monitor, diagnostics, state()/set_state(), checkpoints (full and
/// delta) and fork() therefore work the same at any rank count, and a
/// checkpoint saved at one rank count restores at any other.

namespace accel {
class PipelineAccelerator;
}
namespace homme {
class StateMonitor;
}
namespace sw {
class CgPool;
}

namespace model {

/// A SessionConfig that cannot be realized (validate() / Session ctor).
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The state monitor flagged a physically impossible state after a step.
class ModelBlowup : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything needed to build and drive one simulation. Builder-style:
/// every setter returns *this, so configs compose inline:
///   Session s(SessionConfig{}.with_ne(4).with_levels(8, 2)
///                 .with_backend(SessionConfig::Backend::kPipeline));
struct SessionConfig {
  enum class Backend {
    kHost,      ///< reference host implementation of every phase
    kPipeline   ///< vertical remap offloaded to the accel:: CPE pipeline
  };
  enum class Init { kBaroclinic, kSolidBody, kIsothermalRest };

  // -- resolution / dimensions ---------------------------------------------
  int ne = 4;                      ///< cubed-sphere elements per face edge
  double radius = mesh::kEarthRadius;
  int nlev = 8;                    ///< vertical layers
  int qsize = 2;                   ///< advected tracers
  bool moist = false;

  // -- dynamics (the former DycoreConfig fields) ---------------------------
  double dt = 0.0;                 ///< s; 0 picks the stable dt for the mesh
  int remap_freq = 3;
  double nu = -1.0;                ///< <0: auto
  bool limit_tracers = true;
  bool hypervis_on = true;

  // -- initial condition ----------------------------------------------------
  Init init = Init::kBaroclinic;
  bool init_tracers = true;        ///< fill tracers with the cosine bells
  /// Typed IC: when engaged, its generator replaces the enum above and
  /// its `tracers` flag replaces init_tracers — the path every
  /// scenario:: workload (vortex seeds, perturbed ensembles) flows
  /// through. Disengaged (default) keeps the enum behavior bit-exactly.
  scenario::InitSpec init_spec;

  // -- decomposition / exchange --------------------------------------------
  int nranks = 1;                  ///< dycore ranks on the mini-MPI cluster
  homme::BndryExchange::Mode exchange = homme::BndryExchange::Mode::kOverlap;
  double watchdog_s = 0.0;         ///< net watchdog bound (N ranks only)

  // -- backend / physics ----------------------------------------------------
  Backend backend = Backend::kHost;
  bool physics = false;            ///< run the column physics each step
  double physics_dt = 0.0;         ///< s; 0: same as the dynamics dt
  /// Parameterization suite configuration (module toggles, SST closure).
  /// The default-constructed value is the historical full suite.
  phys::PhysicsConfig physics_cfg{};

  // -- accelerator core groups ----------------------------------------------
  /// Core groups the pipeline backend runs on. One-rank sessions shard
  /// each remap's elements across a private pool of this many groups
  /// (deterministic modeled contention, bit-identical results); N-rank
  /// sessions build one shared pool and pin rank r to group r % N — the
  /// MPE-level decomposition feeding per-CG pipelines. Ignored on the
  /// host backend (analytic benches accept --core-groups uniformly).
  int core_groups = 1;
  /// Externally owned pool (svc::Engine placement): the session's
  /// accelerators run on groups \ref cg_affinity of this pool instead of
  /// a private one, contending with the pool's other tenants. Overrides
  /// core_groups when set.
  std::shared_ptr<sw::CgPool> cg_pool;
  std::vector<int> cg_affinity;

  // -- resilience -----------------------------------------------------------
  sw::FaultPlan* faults = nullptr;  ///< injected kernel/message faults
  int checkpoint_freq = 0;          ///< steps; 0 disables the cadence
  /// Where the checkpoint chain lives; required when checkpoint_freq > 0.
  /// A non-empty base gives the session an async writer: every save is a
  /// COW snapshot serialized off the stepping thread into "<base>.full"
  /// (an SWCK image) and dirty-chunk "<base>.dN" SWDK records.
  std::string checkpoint_base;
  /// A full image every K saves, deltas between; 0 or 1: every save is
  /// a full image.
  int ckpt_full_interval = 4;
  bool monitor = false;             ///< StateMonitor after every step

  // -- observability --------------------------------------------------------
  bool trace = false;              ///< enable the session's own tracer
  obs::ClockDomain trace_domain = obs::ClockDomain::kVirtual;

  // -- builder setters ------------------------------------------------------
  SessionConfig& with_ne(int v) { ne = v; return *this; }
  SessionConfig& with_radius(double v) { radius = v; return *this; }
  SessionConfig& with_levels(int levels, int tracers) {
    nlev = levels; qsize = tracers; return *this;
  }
  SessionConfig& with_moist(bool v = true) { moist = v; return *this; }
  SessionConfig& with_dt(double v) { dt = v; return *this; }
  SessionConfig& with_remap_freq(int v) { remap_freq = v; return *this; }
  SessionConfig& with_nu(double v) { nu = v; return *this; }
  SessionConfig& with_limiter(bool v) { limit_tracers = v; return *this; }
  SessionConfig& with_hypervis(bool v) { hypervis_on = v; return *this; }
  SessionConfig& with_init(Init v, bool tracers = true) {
    init = v; init_tracers = tracers; return *this;
  }
  SessionConfig& with_init(scenario::InitSpec spec) {
    init_spec = std::move(spec); return *this;
  }
  SessionConfig& with_ranks(int v) { nranks = v; return *this; }
  SessionConfig& with_exchange(homme::BndryExchange::Mode v) {
    exchange = v; return *this;
  }
  SessionConfig& with_watchdog(double seconds) {
    watchdog_s = seconds; return *this;
  }
  SessionConfig& with_backend(Backend v) { backend = v; return *this; }
  SessionConfig& with_core_groups(int v) { core_groups = v; return *this; }
  SessionConfig& with_cg_pool(std::shared_ptr<sw::CgPool> pool,
                              std::vector<int> affinity) {
    cg_pool = std::move(pool); cg_affinity = std::move(affinity);
    return *this;
  }
  SessionConfig& with_physics(bool v = true, double dt_s = 0.0) {
    physics = v; physics_dt = dt_s; return *this;
  }
  SessionConfig& with_physics_config(phys::PhysicsConfig c) {
    physics_cfg = std::move(c); return *this;
  }
  SessionConfig& with_faults(sw::FaultPlan* plan) {
    faults = plan; return *this;
  }
  SessionConfig& with_delta_checkpoints(std::string base, int freq,
                                        int full_interval) {
    checkpoint_base = std::move(base); checkpoint_freq = freq;
    ckpt_full_interval = full_interval; return *this;
  }
  SessionConfig& with_monitor(bool v = true) { monitor = v; return *this; }
  SessionConfig& with_trace(bool v = true,
                            obs::ClockDomain d = obs::ClockDomain::kVirtual) {
    trace = v; trace_domain = d; return *this;
  }

  /// The dynamics sub-config this expands to.
  homme::DycoreConfig dycore_config() const;
  homme::Dims dims() const;

  /// Throws ConfigError on the first unrealizable setting.
  void validate() const;
};

/// CRC32 digest of a model state — the bit-identity handle shared by the
/// svc:: engine, the scenario:: experiment runners and the tests: equal
/// configs must yield equal digests at any worker count. Hashes the raw
/// field arrays' per-chunk CRCs (homme::chunk_crcs) with the element
/// count and step, NOT a serialized checkpoint image: that format follows
/// every block with the block's own CRC-32, and by CRC linearity a
/// whole-stream CRC over block||crc(block) pairs cancels the block
/// contents entirely (every image of one shape would hash alike).
std::uint32_t state_digest(const homme::State& state, int step_count);

/// The immutable per-resolution data every simulation of a (ne, nranks)
/// shape shares: mesh topology + metric terms, SFC partition, comm plan.
/// Build once, share via shared_ptr into every Session — an N-member
/// ensemble pays for one copy (see MeshBundle::bytes).
struct MeshBundle {
  mesh::CubedSphere mesh;
  mesh::Partition partition;
  mesh::CommPlan plan;
  int ne = 0;
  int nranks = 1;

  static std::shared_ptr<const MeshBundle> build(
      int ne, int nranks = 1, double radius = mesh::kEarthRadius);

  /// Approximate resident bytes of the bundle (mesh geometry dominates).
  std::size_t bytes() const;

  /// True when a config of this shape can share this bundle.
  bool compatible(const SessionConfig& cfg) const {
    return cfg.ne == ne && cfg.nranks == nranks;
  }
};

/// One running simulation. Owns everything below the config line —
/// dycore(s), cluster, accelerator(s), physics, tracer — and shares the
/// immutable MeshBundle.
class Session {
 public:
  /// Build from scratch (constructs a private MeshBundle).
  explicit Session(SessionConfig cfg);
  /// Share \p bundle (must satisfy bundle->compatible(cfg)).
  Session(SessionConfig cfg, std::shared_ptr<const MeshBundle> bundle);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Copy-on-write clone at any rank count. The child shares the
  /// MeshBundle and aliases every state chunk of the parent; the first
  /// write to a field un-shares just that chunk, so forking N members
  /// costs refcount bumps, not N state copies. The child continues from
  /// the parent's step_count (remap cadence included). Its checkpoint
  /// cadence is disabled unless a new \p checkpoint_base is given
  /// (children must not write over the parent's chain).
  std::unique_ptr<Session> fork(const std::string& checkpoint_base = "") const;

  // -- driving --------------------------------------------------------------

  /// One model step: dynamics, then physics when configured, then the
  /// state monitor when configured (a violation throws ModelBlowup).
  void step();
  /// \p n steps, honoring the checkpoint cadence.
  void run(int n);

  /// Conservation / sanity diagnostics of the global state.
  homme::Diagnostics diagnose() const;

  // -- state ----------------------------------------------------------------

  /// The global state (mesh element order), by value: a COW handle copy.
  homme::State state() const { return state_; }
  /// Replace the model state.
  void set_state(const homme::State& global);

  // -- resilience -----------------------------------------------------------

  // A checkpoint holds the global state, so it restores at any rank
  // count. Every save and restore goes through the configured base's
  // full+delta chain.

  /// Drain the async writer, then restore from the chain at the
  /// configured base: bit-identical to the last checkpoint_now(), remap
  /// cadence included. Throws ConfigError without a checkpoint_base and
  /// CheckpointError on a corrupt or mismatched chain (the session is
  /// then left as it was).
  void restore();

  /// True when the configured base's "<base>.full" exists on disk.
  /// Always false without a configured checkpoint_base.
  bool can_resume() const;
  /// restore() when can_resume(); returns false (leaving the fresh
  /// initial state untouched) otherwise. The next save after a resume
  /// starts the chain over with a fresh full image.
  bool try_resume();
  /// Checkpoint to the configured base: takes a COW snapshot and
  /// returns; serialization and I/O happen off the stepping thread.
  /// Returns false when the config names no checkpoint_base. Used by the
  /// cadence and by the service layer to park in-flight members.
  bool checkpoint_now();
  /// Apply the checkpoint cadence after a step: checkpoints when
  /// checkpoint_freq > 0 divides step_count(). Returns whether it did.
  bool maybe_checkpoint();

  // -- introspection --------------------------------------------------------

  const SessionConfig& config() const { return cfg_; }
  int step_count() const { return step_count_; }
  double dt() const;
  const mesh::CubedSphere& mesh() const { return bundle_->mesh; }
  const MeshBundle& bundle() const { return *bundle_; }
  std::shared_ptr<const MeshBundle> bundle_ptr() const { return bundle_; }
  const homme::Dims& dims() const { return dims_; }

  /// Accelerator launches redone on the host after an injected fault,
  /// summed over ranks (0 on the host backend).
  int fallbacks() const;
  /// The accelerator behind \p rank's dycore (nullptr on the host
  /// backend) — an escape hatch for benches that time a single phase.
  homme::StepAccelerator* accelerator(int rank = 0) const;

  /// Physics diagnostics of the most recent step (physics mode only).
  const phys::PhysicsStats& physics_stats() const { return phys_stats_; }

  /// COW memory accounting of this session's state. resident_bytes is
  /// this member's amortized share of the payloads it references —
  /// summing it over an ensemble's sessions reproduces the true
  /// allocation.
  homme::StoreStats store_stats() const;
  /// Async checkpoint-writer counters (all zero without a
  /// checkpoint_base).
  homme::AsyncCheckpointWriter::Stats checkpoint_stats() const;

  /// The session's own tracer: every layer (dycore, exchange, net,
  /// accelerator, core group) reports into it when cfg.trace is set.
  obs::Tracer& tracer() { return *tracer_; }
  obs::Summary summary() const { return tracer_->summary(); }

 private:
  struct ForkTag {};
  /// COW-clone ctor behind fork(): shares the bundle, aliases the state.
  Session(const Session& parent, const std::string& checkpoint_base,
          ForkTag);

  /// Initial condition on the global mesh, then wire().
  void build();
  /// The runtime both constructors share: tracer, dycore(s) and cluster,
  /// accelerators, physics, monitor and checkpoint writer. \p dcfg
  /// carries the resolved dt/nu when forking.
  void wire(const homme::DycoreConfig& dcfg);
  void step_dynamics();
  homme::CheckpointInfo checkpoint_info() const;

  SessionConfig cfg_;
  std::shared_ptr<const MeshBundle> bundle_;
  homme::Dims dims_;
  int step_count_ = 0;

  std::unique_ptr<obs::Tracer> tracer_;
  /// The model state, mesh element order, at every rank count.
  homme::State state_;
  /// One driver per rank: the whole mesh on one rank, rank r's share of
  /// the partition on N; the cluster runs them (N ranks only).
  std::vector<std::unique_ptr<homme::Dycore>> dycores_;
  std::unique_ptr<net::Cluster> cluster_;

  // Backend / physics (accels_ is one per rank; empty on kHost).
  std::vector<std::unique_ptr<accel::PipelineAccelerator>> accels_;
  std::unique_ptr<phys::PhysicsDriver> physics_;
  phys::PhysicsStats phys_stats_;
  std::unique_ptr<homme::StateMonitor> monitor_;

  // Async checkpoint writer (non-empty checkpoint_base).
  std::unique_ptr<homme::AsyncCheckpointWriter> ckpt_writer_;
};

}  // namespace model
