#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "homme/state.hpp"
#include "mesh/cubed_sphere.hpp"
#include "physics/modules.hpp"

/// \file driver.hpp
/// The physics driver: extracts every GLL column from the dycore state,
/// runs the parameterization suite, and writes the result back. Tracer 0
/// of the dycore is specific humidity. Columns are independent — the
/// property the paper's OpenACC physics port exploits by batching columns
/// over the 64 CPEs.

namespace phys {

struct PhysicsConfig {
  bool radiation = true;
  bool convection = true;
  bool condensation = true;
  bool surface_pbl = true;
  RadiationConfig rad{};
  SurfaceConfig sfc{};
  /// Prescribed SST as a function of (lat, lon); default: zonal profile
  /// with a 302 K tropical maximum.
  std::function<double(double, double)> sst;

  PhysicsConfig() {
    sst = [](double lat, double /*lon*/) {
      const double s = std::sin(lat);
      return 302.0 - 30.0 * s * s;
    };
  }
};

/// Whole-domain physics diagnostics of one step.
struct PhysicsStats {
  double mean_precip = 0.0;  ///< area-weighted, kg/m^2/s
  double mean_olr = 0.0;     ///< area-weighted, W/m^2
  double mean_shf = 0.0;
  double mean_lhf = 0.0;
  double max_precip = 0.0;
  /// Upwelling longwave flux per element per GLL point (the field shown
  /// in Figure 9a/9b), [elem][gidx].
  std::vector<double> olr_field;
};

class PhysicsDriver {
 public:
  PhysicsDriver(const mesh::CubedSphere& m, const homme::Dims& d,
                PhysicsConfig cfg = {});

  /// Apply the suite to every column with physics time step \p dt. The
  /// columns run on homme::HostPool; the domain means are reduced in
  /// column order afterwards, so the result is the same at any thread
  /// count.
  PhysicsStats step(homme::State& s, double dt);

  /// Extract one column (element e, GLL point k) from the state —
  /// exposed for tests and for the Sunway-port column batches.
  Column extract_column(const homme::State& s, int e, int k) const;
  /// Write a processed column back into the state.
  void restore_column(const Column& c, homme::State& s, int e, int k) const;

  const PhysicsConfig& config() const { return cfg_; }

 private:
  const mesh::CubedSphere& mesh_;
  homme::Dims dims_;
  PhysicsConfig cfg_;
  /// Per-column diagnostics of the current step, [elem][gidx]; sized on
  /// the first step and reused, so step() allocates only its result.
  std::vector<ColumnDiag> diags_;
};

}  // namespace phys
