#include "accel/accel_driver.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "accel/pipeline.hpp"
#include "accel/remap_acc.hpp"
#include "homme/host_pool.hpp"
#include "homme/remap.hpp"
#include "sw/ldm.hpp"

namespace accel {

namespace {

/// Balanced contiguous [begin, end) element ranges, one per shard.
std::vector<std::pair<int, int>> shard_ranges(int nelem, int nshards) {
  std::vector<std::pair<int, int>> r;
  r.reserve(static_cast<std::size_t>(nshards));
  const int base = nelem / nshards;
  const int rem = nelem % nshards;
  int begin = 0;
  for (int s = 0; s < nshards; ++s) {
    const int len = base + (s < rem ? 1 : 0);
    r.emplace_back(begin, begin + len);
    begin += len;
  }
  return r;
}

/// Detach the fault plan when the shard launch unwinds.
struct PlanGuard {
  sw::CoreGroup& cg;
  ~PlanGuard() { cg.set_fault_plan(nullptr); }
};

}  // namespace

PipelineAccelerator::PipelineAccelerator(const mesh::CubedSphere& m,
                                         const homme::Dims& d,
                                         std::vector<int> geom_map)
    : mesh_(m),
      dims_(d),
      geom_map_(std::move(geom_map)),
      pool_(std::make_shared<sw::CgPool>(1)),
      cgs_{0} {}

void PipelineAccelerator::use_core_groups(int n) {
  pool_ = std::make_shared<sw::CgPool>(n);
  cgs_.resize(static_cast<std::size_t>(n));
  std::iota(cgs_.begin(), cgs_.end(), 0);
  owns_pool_ = true;
  forward_tracer();
}

void PipelineAccelerator::set_cg_pool(std::shared_ptr<sw::CgPool> pool,
                                      std::vector<int> cgs) {
  if (pool == nullptr) {
    throw std::invalid_argument("PipelineAccelerator: null CgPool");
  }
  if (cgs.empty()) {
    throw std::invalid_argument("PipelineAccelerator: empty CG affinity");
  }
  for (int i : cgs) {
    if (i < 0 || i >= pool->size()) {
      throw std::invalid_argument(
          "PipelineAccelerator: CG affinity index " + std::to_string(i) +
          " outside pool of " + std::to_string(pool->size()));
    }
  }
  pool_ = std::move(pool);
  cgs_ = std::move(cgs);
  owns_pool_ = false;
}

void PipelineAccelerator::forward_tracer() {
  if (owns_pool_) pool_->set_tracer(tracer_, trace_pid_, track_name_);
}

void PipelineAccelerator::set_tracer(obs::Tracer* t,
                                     const std::string& track_name,
                                     int pid) {
  tracer_ = t;
  track_name_ = track_name;
  trace_pid_ = pid;
  trk_ = t != nullptr ? &t->track(track_name, pid, 0) : nullptr;
  forward_tracer();
}

void PipelineAccelerator::vertical_remap(homme::State& s) {
  std::vector<int> state_elems(s.size());
  std::iota(state_elems.begin(), state_elems.end(), 0);
  const std::vector<int>& geom_elems =
      geom_map_.empty() ? state_elems : geom_map_;
  ++launches_;
  obs::ScopedSpan remap_span(trk_, "accel:vertical_remap");
  const int nshards =
      std::max(1, std::min(core_groups(), static_cast<int>(s.size())));
  const auto ranges = shard_ranges(static_cast<int>(s.size()), nshards);
  try {
    // The kernels read and write the packed shard images only; s is
    // untouched until the successful write-back below, so a faulted
    // launch — even after sibling shards already ran — can be discarded
    // wholesale.
    std::vector<std::vector<int>> shard_state(
        static_cast<std::size_t>(nshards));
    std::vector<PackedElems> packs;
    packs.reserve(static_cast<std::size_t>(nshards));
    {
      obs::ScopedSpan span(trk_, "accel:pack");
      for (int si = 0; si < nshards; ++si) {
        const auto [b, e] = ranges[static_cast<std::size_t>(si)];
        auto& se = shard_state[static_cast<std::size_t>(si)];
        se.assign(state_elems.begin() + b, state_elems.begin() + e);
        std::vector<int> ge(geom_elems.begin() + b, geom_elems.begin() + e);
        packs.push_back(PackedElems::from_state(mesh_, dims_, s, se, ge));
      }
    }

    // Declare every shard's DMA stream on the shared controller *before*
    // the first shard runs: each descriptor then samples the same active
    // count on every run, so modeled times are deterministic however the
    // host schedules the shards. (Unrelated tenants of a shared pool
    // still contend dynamically on top.)
    std::vector<sw::MemoryContention::StreamGuard> streams;
    streams.reserve(static_cast<std::size_t>(nshards));
    for (int si = 0; si < nshards; ++si) {
      streams.emplace_back(pool_->contention());
    }

    // Each shard runs on its own core group under that group's lock, on
    // the host pool like any other independent loop. A fault plan counts
    // ops per CPE id across every group, so with one attached the shards
    // run one after another in shard order and the firing schedule stays
    // the same run to run.
    std::vector<sw::KernelStats> shard_stats(static_cast<std::size_t>(nshards));
    auto run_shard = [&](std::size_t si) {
      const int cgi = cgs_[si];
      sw::CoreGroup& cg = pool_->group(cgi);
      auto lk = pool_->lock(cgi);
      cg.set_fault_plan(faults_);
      PlanGuard plan_guard{cg};
      RemapKernel k(packs[si]);
      KernelPipeline pipe({&k});
      shard_stats[si] = pipe.run(cg);
    };
    if (faults_ != nullptr) {
      for (std::size_t si = 0; si < shard_stats.size(); ++si) run_shard(si);
    } else {
      homme::parallel_for(shard_stats.size(), run_shard);
    }

    // Aggregate in shard order. Shards occupy distinct core groups
    // concurrently: the remap is done when the slowest shard is; counters
    // sum.
    sw::KernelStats agg = shard_stats[0];
    for (std::size_t si = 1; si < shard_stats.size(); ++si) {
      const sw::KernelStats& st = shard_stats[si];
      agg.cycles = std::max(agg.cycles, st.cycles);
      agg.seconds = std::max(agg.seconds, st.seconds);
      agg.totals += st.totals;
      for (std::size_t p = 0; p < agg.phases.size() && p < st.phases.size();
           ++p) {
        agg.phases[p].cycles =
            std::max(agg.phases[p].cycles, st.phases[p].cycles);
        agg.phases[p].seconds =
            std::max(agg.phases[p].seconds, st.phases[p].seconds);
        agg.phases[p].totals += st.phases[p].totals;
      }
    }
    last_stats_ = agg;

    {
      obs::ScopedSpan span(trk_, "accel:unpack");
      for (int si = 0; si < nshards; ++si) {
        packs[static_cast<std::size_t>(si)].to_state(
            s, shard_state[static_cast<std::size_t>(si)]);
      }
    }
  } catch (const sw::KernelFault& e) {
    degrade(s, e.what());
  } catch (const sw::LdmOverflow& e) {
    degrade(s, e.what());
  } catch (const sw::SchedulerDeadlock& e) {
    degrade(s, e.what());
  }
}

void PipelineAccelerator::degrade(homme::State& s, const std::string& why) {
  last_fault_ = why;
  ++fallbacks_;
  // The abandoned launch may have left persistent-LDM residency entries
  // pinned to the destroyed packed images; purge every assigned group
  // before the next launch.
  for (int i : cgs_) {
    auto lk = pool_->lock(i);
    pool_->group(i).purge_ldm();
  }
  // A fallback that succeeds is otherwise invisible in any report: count
  // it in the per-phase summary even on healthy-looking runs.
  if (trk_ != nullptr) trk_->instant("accel:host_fallback");
  {
    obs::ScopedSpan span(trk_, "accel:host_remap");
    homme::vertical_remap_local(dims_, s);
  }
  last_stats_ = sw::KernelStats{};
  last_stats_.totals.host_fallbacks = 1;
}

}  // namespace accel
