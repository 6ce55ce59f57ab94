#pragma once

#include <span>
#include <vector>

#include "mesh/cubed_sphere.hpp"

/// \file dss.hpp
/// Direct stiffness summation (DSS) over the whole mesh — the one-rank
/// reference against which the distributed bndry_exchangev versions are
/// verified. DSS projects element-wise (discontinuous) fields onto the
/// continuous spectral-element space: mass-weighted sums at shared GLL
/// points, divided by the assembled mass. Levels run as homme::HostPool
/// items, each summing its nodes in element order, so the result equals
/// a serial sweep bit for bit.

namespace homme {

/// DSS one multi-level scalar field. elem_fields[e] points at element e's
/// [nlev][kNpp] data (fidx layout).
void dss_levels(const mesh::CubedSphere& m,
                std::span<double* const> elem_fields, int nlev);

/// DSS a contravariant vector field. Because adjacent faces use different
/// frames, components are rotated to Cartesian 3-space, assembled, and
/// projected back with the dual basis.
void dss_vector_levels(const mesh::CubedSphere& m,
                       std::span<double* const> u1,
                       std::span<double* const> u2, int nlev);

/// Convenience: build the per-element pointer table for a member field.
/// DSS writes in place, so this takes the write path: each chunk is
/// un-shared (COW) up front if a forked member still aliases it.
template <typename StateVec, typename Member>
std::vector<double*> field_ptrs(StateVec& state, Member member) {
  std::vector<double*> p;
  p.reserve(state.size());
  for (auto& es : state) p.push_back((es.*member).mutable_span().data());
  return p;
}

}  // namespace homme
