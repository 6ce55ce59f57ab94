#pragma once

#include <span>

#include "homme/state.hpp"
#include "mesh/partition.hpp"

/// \file local_state.hpp
/// Rank-local views of a global dycore state, keyed by the SFC partition.
///
/// Every distributed consumer — model::Session's N-rank step, tests
/// assembling a global state out of rank pieces — needs the same two
/// primitives: extract the elements a rank owns (in Partition::rank_elems
/// order) and write them back. They live here as free functions so the
/// element-order convention exists in exactly one place. Both copy
/// ElementState handles, so a gathered view aliases the global state's
/// chunks (COW) until a write un-shares one.

namespace homme {

/// Extract the elements listed in \p elems (local order = list order).
State gather_local(std::span<const int> elems, const State& global);

/// Inverse of gather_local: write \p local back into \p global.
void scatter_local(std::span<const int> elems, const State& local,
                   State& global);

/// Partition-keyed forms: rank \p rank's elements in SFC order.
State gather_local(const mesh::Partition& part, int rank,
                   const State& global);
void scatter_local(const mesh::Partition& part, int rank, const State& local,
                   State& global);

}  // namespace homme
