#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core.hpp"
#include "homme/state.hpp"
#include "obs/trace.hpp"

/// \file common.hpp
/// Pieces the three workloads share: clocks, the metric tables that
/// BENCHMARK.json mirrors, the run outcome, the benchmark's own tracer
/// and the work directory.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Simulated years per host day.
inline double sypd(double simulated_s, double wall_s) {
  return simulated_s / wall_s / 365.0;
}

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

/// Largest normwise relative difference over u1, u2, T, dp and qdp of two
/// states of one shape (the measure the documented 1e-9 bound applies to).
double max_rel_diff(const homme::State& a, const homme::State& b);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in print order (the untraced run's output).
extern const std::vector<MetricSpec> kEndToEnd;
/// Every per-layer metric, in print order (the traced run's output).
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run produced. Workloads fill end_to_end (untraced
/// runs) or per_layer (traced runs). Every measured operation and every
/// correctness check is one attempt; a failed one makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few reasons
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  Outcome();  ///< per_layer starts with every kPerLayer metric at 0

  /// Count one attempt; when !ok, a failure explained by \p why.
  void check(bool ok, const std::string& why);
  bool correct() const { return failed == 0; }
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  /// Set a per-layer metric; throws std::logic_error on a name that is
  /// not in kPerLayer.
  void layer(const std::string& name, double value);
};

/// Render \p values in \p specs order; throws std::logic_error when a
/// metric is missing or an unknown one is present.
std::vector<Metric> ordered(const std::vector<MetricSpec>& specs,
                            const std::map<std::string, double>& values);

/// The benchmark's own tracer (wall clock). Spans go on one track, and
/// only while tracing: track(traced) is null otherwise, which makes
/// obs::ScopedSpan a no-op. The ring is allocated in the constructor, so
/// no timed span pays for it.
class BenchTracer {
 public:
  explicit BenchTracer(bool enabled);
  BenchTracer(const BenchTracer&) = delete;
  BenchTracer& operator=(const BenchTracer&) = delete;

  obs::Track* track(bool traced = true) {
    return enabled_ && traced ? track_ : nullptr;
  }
  /// Mean duration per occurrence of span \p name, ms (0 when absent).
  double mean_ms(const std::string& name) const;

 private:
  obs::Tracer tracer_{obs::ClockDomain::kWall};
  obs::Track* track_ = nullptr;
  bool enabled_;
};

/// A work directory for checkpoint files, created on construction and
/// removed with its contents on destruction.
class WorkDir {
 public:
  explicit WorkDir(std::string path);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string sub(const std::string& name) const;

 private:
  std::string path_;
};

}  // namespace perfbench
