#pragma once

#include "common.hpp"

/// \file workloads.hpp
/// The benchmark workloads. Each runs its set-up, measures for
/// args.seconds, checks its outputs and returns the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run). README.md gives
/// the reasons for each, and why BENCHMARK.json gates only climate-hero
/// and ensemble-client.

namespace perfbench {

/// One long aquaplanet run at ne8/L16 with moist physics on the pipeline
/// backend, sharded over 4 core groups, with async delta checkpoints.
Outcome run_climate_hero(const Args& a, BenchTracer& bt,
                         const WorkDir& dir);

/// The baroclinic wave at ne8/L16 on 2 mini-MPI ranks, host backend,
/// overlapped boundary exchange. Not gated: unsteady on a shared host.
Outcome run_parallel_dycore(const Args& a, BenchTracer& bt,
                            const WorkDir& dir);

/// An open loop of independent users submitting small ensemble members
/// to svc::Server on a seeded Poisson schedule. Not gated: its request
/// tail multiplies every slowdown of a shared host.
Outcome run_ensemble_service(const Args& a, BenchTracer& bt,
                             const WorkDir& dir);

/// The ensemble-service server and request mix driven by one user in a
/// closed loop: the next request goes when the last one completes.
Outcome run_ensemble_client(const Args& a, BenchTracer& bt,
                            const WorkDir& dir);

}  // namespace perfbench
