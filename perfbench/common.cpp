#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"sypd_host", "SYPD"},
    {"step_p50_ms", "ms"},
    {"step_p90_ms", "ms"},
    {"request_p50_ms", "ms"},
    {"request_tail_ms", "ms"},
    {"slo_met_frac", "frac"},
    {"success_frac", "frac"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"mesh.bundle_build_ms", "ms"},
    {"scenario.init_ms", "ms"},
    {"model.session_build_ms", "ms"},
    {"model.step_ms_p50", "ms"},
    {"model.parallel_step_ms_p50", "ms"},
    {"homme.rhs_ms", "ms"},
    {"homme.euler_ms", "ms"},
    {"homme.hypervis_ms", "ms"},
    {"homme.remap_ms", "ms"},
    {"homme.dss_ms", "ms"},
    {"physics.step_ms", "ms"},
    {"physics.columns", "count"},
    {"accel.remap_ms", "ms"},
    {"accel.launches", "count"},
    {"accel.fallbacks", "count"},
    {"sw.remap_cycles", "cycles"},
    {"sw.dma_bytes", "B"},
    {"sw.dma_reuse_frac", "frac"},
    {"sw.ldm_peak_bytes", "B"},
    {"sw.mc_stall_cycles", "cycles"},
    {"net.dss_ms", "ms"},
    {"net.msg_bytes_per_dss", "B"},
    {"net.copy_bytes_per_dss", "B"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.saves", "count"},
    {"ckpt.bytes_per_save", "B"},
    {"ckpt.blocked_saves", "count"},
    {"svc.submit_ms_p99", "ms"},
    {"svc.queue_wait_ms_p50", "ms"},
    {"svc.queue_wait_ms_p99", "ms"},
    {"svc.exec_ms_p50", "ms"},
    {"svc.exec_ms_p99", "ms"},
    {"svc.utilization", "frac"},
    {"svc.admitted", "count"},
    {"svc.throttled", "count"},
    {"svc.rejected", "count"},
    {"svc.retries", "count"},
    {"svc.checkpoint_saves", "count"},
    {"svc.resident_bytes_per_member", "B"},
    {"svc.cg_placed_members", "count"},
    {"svc.cg_contended_ops", "count"},
    {"bench.gen_late_ms_p99", "ms"},
    {"bench.gen_late_ms_max", "ms"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.error_rate", "frac"},
};

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  if (kb <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb * 1024.0 / 1e6;
}

double max_rel_diff(const homme::State& a, const homme::State& b) {
  if (a.size() != b.size()) {
    throw std::logic_error("max_rel_diff: states of different shapes");
  }
  // Normwise per field: the largest pointwise difference over the
  // field's largest magnitude, so near-zero values (a resting wind
  // component) do not turn round-off into an O(1) relative error.
  double worst = 0.0;
  const auto field = [&](auto member) {
    double diff = 0.0, scale = 0.0;
    for (std::size_t e = 0; e < a.size(); ++e) {
      std::span<const double> x = (a[e].*member).span();
      std::span<const double> y = (b[e].*member).span();
      if (x.size() != y.size()) {
        throw std::logic_error("max_rel_diff: fields of different sizes");
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        diff = std::max(diff, std::abs(x[i] - y[i]));
        scale = std::max({scale, std::abs(x[i]), std::abs(y[i])});
      }
    }
    if (scale > 0.0) worst = std::max(worst, diff / scale);
  };
  field(&homme::ElementState::u1);
  field(&homme::ElementState::u2);
  field(&homme::ElementState::T);
  field(&homme::ElementState::dp);
  field(&homme::ElementState::qdp);
  return worst;
}

Outcome::Outcome() {
  for (const MetricSpec& m : kPerLayer) per_layer[m.name] = 0.0;
}

void Outcome::check(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 10) failures.push_back(why);
}

void Outcome::layer(const std::string& name, double value) {
  auto it = per_layer.find(name);
  if (it == per_layer.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

std::vector<Metric> ordered(const std::vector<MetricSpec>& specs,
                            const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) {
    auto it = values.find(s.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric ") + s.name +
                             " was not measured");
    }
    out.push_back(Metric{s.name, it->second, s.unit});
  }
  if (values.size() != specs.size()) {
    throw std::logic_error("a workload reported a metric outside the table");
  }
  return out;
}

BenchTracer::BenchTracer(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  tracer_.set_ring_capacity(16384);
  tracer_.enable();
  track_ = &tracer_.track("perfbench");
  // The ring is allocated on a track's first event; record one and reset
  // so the allocation lands here and not inside the first timed span.
  track_->instant("perfbench:prime");
  tracer_.reset();
}

double BenchTracer::mean_ms(const std::string& name) const {
  if (!enabled_) return 0.0;
  const obs::Summary s = tracer_.summary();
  auto it = s.find(name);
  if (it == s.end() || it->second.count == 0) return 0.0;
  return it->second.total_us / 1000.0 /
         static_cast<double>(it->second.count);
}

WorkDir::WorkDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string WorkDir::sub(const std::string& name) const {
  return path_ + "/" + name;
}

}  // namespace perfbench
