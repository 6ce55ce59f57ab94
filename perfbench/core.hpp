#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file core.hpp
/// The benchmark's model-independent core: the command line, the sample
/// statistics every reported figure goes through, and the one-line JSON
/// result. Kept free of model headers so its tests build on their own.

namespace perfbench {

/// A command line the benchmark refuses: unknown workload or flag,
/// malformed or out-of-range value.
class ArgError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A percentile asked of too few samples (fewer than kMinBeyond would lie
/// beyond it), or a percentile outside (0, 1).
class InsufficientSamples : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class Workload {
  kClimateHero,
  kEnsembleClient,
  kEnsembleService,
  kParallelDycore
};

std::string_view workload_name(Workload w);

struct Args {
  Workload workload = Workload::kClimateHero;
  std::uint64_t seed = 0;
  int seconds = 0;        ///< measuring time, whole seconds
  bool trace = false;     ///< per-layer (traced) run instead of end to end
  std::string workdir;    ///< directory for checkpoint files (created)
};

/// Parse "--workload W --seed N --seconds S --trace 0|1 [--workdir DIR]"
/// (argv without the program name). Every flag but --workdir is required.
/// Throws ArgError naming the offending flag or value.
Args parse_args(const std::vector<std::string>& argv);

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank \p q-percentile of \p n
/// samples: n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank percentile (0 < q < 1) of \p v. Throws
/// InsufficientSamples when fewer than kMinBeyond samples lie beyond it.
double percentile(std::vector<double> v, double q);

/// percentile(v, 0.5).
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

/// Nearest-rank quartiles; refused like percentile() for the third.
Quartiles quartiles(std::vector<double> v);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Values print with 17 significant digits; a non-finite value is a
/// program error (std::logic_error).
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
