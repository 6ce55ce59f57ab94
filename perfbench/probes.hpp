#pragma once

#include "common.hpp"
#include "model/session.hpp"
#include "scenario/registry.hpp"

namespace accel {
class PipelineAccelerator;
}

/// \file probes.hpp
/// Per-layer probes of the traced run: each times calls into one layer's
/// public functions, one span per call, on a warmed copy of the
/// workload's own state, and records the layer's metrics. They run after
/// the timed region, so they never perturb the workload's own samples.

namespace perfbench {

/// mesh.bundle_build_ms, scenario.init_ms and model.session_build_ms:
/// mean of 3 model::MeshBundle builds, scenario initial states and
/// Session builds on that bundle, all of \p cfg's shape.
void probe_setup_layers(BenchTracer& bt, const scenario::Scenario& sc,
                        const model::SessionConfig& cfg, Outcome& out);

/// homme.{rhs,euler,hypervis,remap,dss}_ms: per-call time of the public
/// host kernels on a private copy of \p warm.
void probe_homme(BenchTracer& bt, const model::Session& s,
                 const homme::State& warm, Outcome& out);

/// physics.step_ms and physics.columns: the column physics suite of
/// \p s's config on a private copy of \p warm.
void probe_physics(BenchTracer& bt, const model::Session& s,
                   const homme::State& warm, Outcome& out);

/// accel.remap_ms and the modeled sw.* counters of one vertical remap
/// launched through \p pa on a private copy of \p warm.
void probe_accel(BenchTracer& bt, accel::PipelineAccelerator& pa,
                 const homme::State& warm, Outcome& out);

/// net.*: homme::BndryExchange::dss_levels (overlap mode) of T in the
/// global state \p warm, on a Cluster with \p b's ranks, built from its
/// partition and comm plan.
void probe_net(BenchTracer& bt, const model::MeshBundle& b, int nlev,
               const homme::State& warm, Outcome& out);

/// p50 step time (ms) of \p steps steps of \p s, one \p span each.
double probe_steps(BenchTracer& bt, model::Session& s, int steps,
                   const char* span);

}  // namespace perfbench
