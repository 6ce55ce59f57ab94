#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/packed.hpp"
#include "homme/driver.hpp"
#include "sw/cg_pool.hpp"
#include "sw/fault.hpp"

/// \file accel_driver.hpp
/// Glue between the homme dycore and the accel kernel pipeline: a
/// homme::StepAccelerator that packs the state, runs the ported kernels
/// on a simulated core-group pool, and unpacks the prognostics. This is
/// the boundary the paper's redesigned CAM-SE crosses on every dynamics
/// step — host element structures on one side, flat DMA-able images on
/// the other.

namespace accel {

/// Runs the vertical remap of a dynamics step through the athread
/// kernel pipeline. Attach to a homme::Dycore with
/// attach_accelerator(&pa).
///
/// For a whole-mesh Dycore the state indexes mesh elements directly —
/// default-construct with the mesh and dims. For a rank's Dycore the
/// local state is a permutation of a subset of mesh elements; pass the
/// local->global map (Partition::rank_elems[rank]) as \p geom_map.
///
/// By default the accelerator owns a private 1-CG pool, exactly the
/// historical single-core-group behavior. use_core_groups(n) widens the
/// private pool. A private pool is built on its first use (a launch or
/// cg_pool()), so an accelerator bound elsewhere before then never pays
/// for one. set_cg_pool() instead binds to an externally owned
/// sw::CgPool (svc::Engine placement, one processor shared by several
/// members) with an explicit CG-affinity list. Either way every remap
/// shards its elements contiguously across the assigned groups — the
/// remap arithmetic is per-element independent, so the sharded result is
/// bit-identical to the 1-CG result.
class PipelineAccelerator final : public homme::StepAccelerator {
 public:
  PipelineAccelerator(const mesh::CubedSphere& m, const homme::Dims& d,
                      std::vector<int> geom_map = {});

  /// Offload to the CPE pipeline; on a kernel fault (injected DMA/reg
  /// failure, CPE death, LDM overflow, scheduler deadlock) or a column the
  /// kernel's remap rejects (homme::RemapError, e.g. a corrupted
  /// transfer) the poisoned launch is discarded — the host state was
  /// never touched; shard images unpack only after every shard
  /// succeeded — and the remap re-runs on the host reference path,
  /// bit-identical to a never-accelerated step. A state the host remap
  /// rejects too still throws its homme::RemapError. The fallback is recorded in the launch
  /// stats (CpeCounters::host_fallbacks) and in fallbacks()/last_fault().
  /// Shards run concurrently on homme::HostPool, each under its own
  /// group's lock; their stats aggregate in shard order.
  void vertical_remap(homme::State& s) override;

  /// Shard subsequent remaps across \p n core groups of a fresh private
  /// pool (affinity 0..n-1). Replaces any previously bound pool.
  void use_core_groups(int n);
  /// Bind to an externally owned pool, running shards on the groups in
  /// \p cgs (in order). The pool's per-group locks serialize against
  /// other accelerators sharing the processor; DMA streams of all
  /// tenants contend on the pool's shared memory controller.
  void set_cg_pool(std::shared_ptr<sw::CgPool> pool, std::vector<int> cgs);
  /// The bound pool; builds the private pool if no launch has yet.
  const std::shared_ptr<sw::CgPool>& cg_pool() {
    ensure_pool();
    return pool_;
  }
  const std::vector<int>& cg_affinity() const { return cgs_; }
  int core_groups() const { return static_cast<int>(cgs_.size()); }

  /// Inject simulated faults into subsequent launches (nullptr detaches).
  /// The plan is installed on each assigned core group only for the
  /// duration of that group's shard launch, so siblings sharing the pool
  /// never see it. Its per-CPE op counters are shared by every group (CPE
  /// ids repeat across groups), so while a plan is attached the shards
  /// run one after another in shard order — never concurrently on the
  /// host pool — and the same plan fires the same faults on every run.
  void set_fault_plan(sw::FaultPlan* plan) { faults_ = plan; }

  /// Attach a tracer: the accelerator reports pack/offload/unpack spans
  /// and host fallbacks (as counted "accel:host_fallback" instants) on
  /// track \p track_name. When the accelerator owns its pool the tracer
  /// is forwarded to it ("<track_name>/cg:<i>" tracks, pid \p pid + i);
  /// an externally bound pool keeps whatever tracer its owner attached.
  /// Two accelerators on one tracer need distinct names.
  void set_tracer(obs::Tracer* t, const std::string& track_name = "accel",
                  int pid = sw::CoreGroup::kDefaultTracePid);

  /// Stats of the most recent offloaded remap, aggregated over its
  /// shards: counters summed, cycles/seconds the slowest shard (shards
  /// run concurrently on distinct groups). Empty before the first.
  const sw::KernelStats& last_stats() const { return last_stats_; }
  /// Number of launches routed through this accelerator so far.
  int launches() const { return launches_; }
  /// Launches discarded after a fault and redone on the host path.
  int fallbacks() const { return fallbacks_; }
  /// Diagnostic of the most recent fault that forced a fallback.
  const std::string& last_fault() const { return last_fault_; }

 private:
  void degrade(homme::State& s, const std::string& why);
  void forward_tracer();
  sw::CgPool& ensure_pool();

  const mesh::CubedSphere& mesh_;
  homme::Dims dims_;
  std::vector<int> geom_map_;
  std::shared_ptr<sw::CgPool> pool_;  ///< null until a private pool's first use
  std::vector<int> cgs_;
  bool owns_pool_ = true;
  sw::FaultPlan* faults_ = nullptr;
  sw::KernelStats last_stats_;
  int launches_ = 0;
  int fallbacks_ = 0;
  std::string last_fault_;
  obs::Tracer* tracer_ = nullptr;
  std::string track_name_ = "accel";
  int trace_pid_ = sw::CoreGroup::kDefaultTracePid;
  obs::Track* trk_ = nullptr;
};

}  // namespace accel
