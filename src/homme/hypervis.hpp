#pragma once

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"

/// \file hypervis.hpp
/// The horizontal dissipation kernels of Table 1:
///   hypervis_dp1     — regular (nabla^2) viscosity on momentum and T
///   hypervis_dp2     — hyper (nabla^4) viscosity on momentum and T
///   biharmonic_dp3d  — weak biharmonic operator on the layer thickness
///
/// nabla^2 is the weak-form spectral Laplacian followed by DSS; the
/// biharmonic applies it twice with a DSS in between. Vector fields are
/// dissipated component-wise in Cartesian 3-space (coordinate-free across
/// cube faces) and projected back.
///
/// Each kernel is one batched sweep over its fields (the loop fusion of
/// section 7.3 and the aggregated exchange of section 7.6): one pool
/// region per Laplacian application over every field, and one DSS of all
/// their levels between applications. The result is bit for bit that of
/// dissipating one field at a time.

namespace homme {

class Exchange;

/// Table 1 "hypervis dp1": u, T <- u, T + dt*nu*Lap(u, T), over the
/// elements \p ex owns (its local order).
void hypervis_dp1(Exchange& ex, const Dims& d, State& s, double nu,
                  double dt);
/// The same kernel over the whole mesh.
void hypervis_dp1(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt);

/// Table 1 "hypervis dp2": u, T <- u, T - dt*nu*Lap(Lap(u, T)), over the
/// elements \p ex owns.
void hypervis_dp2(Exchange& ex, const Dims& d, State& s, double nu,
                  double dt);
/// The same kernel over the whole mesh.
void hypervis_dp2(const mesh::CubedSphere& m, const Dims& d, State& s,
                  double nu, double dt);

/// Table 1 "biharmonic dp3d": dp <- dp - dt*nu*Lap(Lap(dp)), over the
/// elements \p ex owns.
void biharmonic_dp3d(Exchange& ex, const Dims& d, State& s, double nu,
                     double dt);
/// The same kernel over the whole mesh.
void biharmonic_dp3d(const mesh::CubedSphere& m, const Dims& d, State& s,
                     double nu, double dt);

/// The dycore's hyperviscosity: hypervis_dp2 and biharmonic_dp3d in one
/// sweep over u, T and dp, with the same result as calling them in turn.
void hyperviscosity(Exchange& ex, const Dims& d, State& s, double nu,
                    double dt);

}  // namespace homme
