#include "core.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

constexpr std::pair<Workload, std::string_view> kWorkloads[] = {
    {Workload::kClimateHero, "climate-hero"},
    {Workload::kEnsembleClient, "ensemble-client"},
    {Workload::kEnsembleService, "ensemble-service"},
    {Workload::kParallelDycore, "parallel-dycore"},
};

Workload parse_workload(const std::string& s) {
  for (const auto& [w, name] : kWorkloads) {
    if (s == name) return w;
  }
  std::string known;
  for (const auto& [w, name] : kWorkloads) {
    known += known.empty() ? "" : ", ";
    known += name;
  }
  throw ArgError("--workload: unknown workload \"" + s + "\" (known: " +
                 known + ")");
}

/// Strict unsigned decimal: digits only, no sign, no overflow.
std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, v);
  if (s.empty() || r.ec != std::errc{} || r.ptr != end) {
    throw ArgError(flag + ": expected an unsigned decimal integer, got \"" +
                   s + "\"");
  }
  return v;
}

}  // namespace

std::string_view workload_name(Workload w) {
  for (const auto& [k, name] : kWorkloads) {
    if (k == w) return name;
  }
  return "?";
}

Args parse_args(const std::vector<std::string>& argv) {
  std::map<std::string, std::string> flags;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--workdir") {
      throw ArgError("unknown argument \"" + flag + "\"");
    }
    if (i + 1 >= argv.size()) throw ArgError(flag + ": missing value");
    if (!flags.emplace(flag, argv[i + 1]).second) {
      throw ArgError(flag + ": given twice");
    }
  }
  for (const char* req : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(req) == 0) throw ArgError(std::string(req) + ": required");
  }

  Args a;
  a.workload = parse_workload(flags["--workload"]);
  a.seed = parse_u64("--seed", flags["--seed"]);
  const std::uint64_t seconds = parse_u64("--seconds", flags["--seconds"]);
  if (seconds < 1 || seconds > 600) {
    throw ArgError("--seconds: must be in 1..600, got " + flags["--seconds"]);
  }
  a.seconds = static_cast<int>(seconds);
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") {
    throw ArgError("--trace: must be 0 or 1, got \"" + trace + "\"");
  }
  a.trace = trace == "1";
  if (flags.count("--workdir") != 0) {
    a.workdir = flags["--workdir"];
    if (a.workdir.empty()) throw ArgError("--workdir: empty path");
  }
  return a;
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The small slack keeps q * n that is an integer in exact arithmetic
  // (0.9 * 100) from rounding up one rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto k = static_cast<std::size_t>(std::max(rank, 1.0));
  return k >= n ? 0 : n - k;
}

double percentile(std::vector<double> v, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw InsufficientSamples("percentile: q must lie in (0, 1)");
  }
  const std::size_t beyond = samples_beyond(v.size(), q);
  if (v.empty() || beyond < kMinBeyond) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "percentile p%g of %zu samples: %zu lie beyond it, "
                  "need %zu",
                  q * 100.0, v.size(), beyond, kMinBeyond);
    throw InsufficientSamples(msg);
  }
  const std::size_t k = v.size() - beyond - 1;  // 0-based nearest rank
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.q3 = percentile(v, 0.75);
  q.median = percentile(v, 0.5);
  q.q1 = percentile(std::move(v), 0.25);
  return q;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
