#pragma once

#include <cstddef>
#include <span>

#include "homme/bndry.hpp"
#include "mesh/cubed_sphere.hpp"
#include "mesh/partition.hpp"
#include "net/mini_mpi.hpp"
#include "obs/trace.hpp"

/// \file exchange.hpp
/// homme::Exchange — the execution backend of one dycore driver: which
/// elements it owns and how their DSS is assembled. The paper's prim_run
/// is one dynamics step whose every DSS goes through bndry_exchangev at
/// any scale; here the step (driver.cpp) and its kernels (rhs, euler,
/// hypervis) exist once and take an Exchange, and the two
/// implementations below are the only place the rank count shows:
///
///   MeshExchange — the whole mesh on one rank: identity element map,
///                  the sequential homme::dss_levels / dss_vector_levels;
///   RankExchange — rank r of an SFC partition: the rank's elements in
///                  Partition::rank_elems order, DSS through
///                  BndryExchange in its original or overlap Mode.
///
/// Element fields are indexed by *local* position le in [0, nlocal());
/// global_elem(le) names the mesh element (and so the geometry) behind it.

namespace homme {

class Exchange {
 public:
  explicit Exchange(const mesh::CubedSphere& m) : mesh_(m) {}
  virtual ~Exchange() = default;
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  const mesh::CubedSphere& mesh() const { return mesh_; }
  /// Elements this exchange owns.
  virtual int nlocal() const = 0;
  /// Mesh element id of local element \p le.
  virtual int global_elem(int le) const = 0;
  /// Geometry of local element \p le.
  const mesh::ElementGeom& geom(int le) const {
    return mesh_.geom(global_elem(le));
  }

  /// DSS a multi-level scalar field given by per-local-element pointers.
  virtual void dss_levels(std::span<double* const> fields, int nlev) = 0;
  /// DSS a contravariant vector field (via Cartesian rotation).
  virtual void dss_vector_levels(std::span<double* const> u1,
                                 std::span<double* const> u2, int nlev) = 0;

  /// Thread-arena doubles one dss_levels call takes on top of whatever
  /// its caller holds — kernels add it to their own reservation, since
  /// the arena cannot grow under live frames.
  virtual std::size_t dss_scratch(int nlev) const = 0;

  /// The calling rank's endpoint for the collective DSS calls that follow
  /// (nullptr releases it). The whole mesh needs none and ignores it.
  virtual void bind(net::Rank* r) { (void)r; }

  /// The trace track a driver on this exchange reports on — "dycore"
  /// (pid 0) for the whole mesh, "rank<r>" (pid r) per rank, the track
  /// the net layer shares, with the bndry:* phase spans wired onto it.
  /// nullptr detaches.
  virtual obs::Track* open_track(obs::Tracer* t) = 0;

 protected:
  const mesh::CubedSphere& mesh_;
};

/// The whole mesh on one rank.
class MeshExchange final : public Exchange {
 public:
  explicit MeshExchange(const mesh::CubedSphere& m) : Exchange(m) {}

  int nlocal() const override { return mesh_.nelem(); }
  int global_elem(int le) const override { return le; }
  void dss_levels(std::span<double* const> fields, int nlev) override;
  void dss_vector_levels(std::span<double* const> u1,
                         std::span<double* const> u2, int nlev) override;
  std::size_t dss_scratch(int nlev) const override;
  obs::Track* open_track(obs::Tracer* t) override;
};

/// Rank \p rank of an SFC partition.
class RankExchange final : public Exchange {
 public:
  RankExchange(const mesh::CubedSphere& m, const mesh::Partition& part,
               const mesh::CommPlan& plan, int rank, BndryExchange::Mode mode)
      : Exchange(m), bx_(m, part, plan, rank), mode_(mode) {}

  int nlocal() const override { return bx_.nlocal(); }
  int global_elem(int le) const override { return bx_.global_elem(le); }
  void dss_levels(std::span<double* const> fields, int nlev) override;
  void dss_vector_levels(std::span<double* const> u1,
                         std::span<double* const> u2, int nlev) override;
  /// The node accumulator is a BndryExchange member, not arena storage.
  std::size_t dss_scratch(int) const override { return 0; }
  void bind(net::Rank* r) override { rank_ = r; }
  obs::Track* open_track(obs::Tracer* t) override;

 private:
  net::Rank& bound() const;

  BndryExchange bx_;
  BndryExchange::Mode mode_;
  net::Rank* rank_ = nullptr;
};

}  // namespace homme
