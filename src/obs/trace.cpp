#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_f(std::string& out, const char* fmt, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// Timestamps are printed with fixed precision so a virtual-clock export is
/// byte-stable across platforms.
void append_ts(std::string& out, double us) { append_f(out, "%.3f", us); }

}  // namespace

// ---------------------------------------------------------------------------
// Track

double Track::now() const {
  if (tracer_->domain() == ClockDomain::kVirtual) return vclock_;
  return tracer_->wall_now_us();
}

bool Track::recording() const { return tracer_->enabled(); }

void Track::size_ring() {
  if (ring_fixed_) return;
  const std::size_t cap = std::max<std::size_t>(1, tracer_->ring_capacity());
  if (ring_cap_ != cap) {
    ring_cap_ = cap;
    ring_ = std::vector<Event>(cap);
  }
  // Spans nest a few levels deep; reserve so the first begin() does not
  // grow the stack either.
  constexpr std::size_t kStackReserve = 16;
  stack_.reserve(kStackReserve);
}

void Track::push(const Event& e) {
  if (!ring_fixed_) {
    size_ring();
    ring_fixed_ = true;
  }
  if (count_ == ring_cap_) ++dropped_;  // overwriting the oldest event
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_cap_;
  if (count_ < ring_cap_) ++count_;
}

void Track::record(EventPhase ph, const char* name, double ts, double dur,
                   CounterList args) {
  Event e;
  e.name = name;
  e.ts = ts;
  e.dur = dur;
  e.ph = ph;
  e.nargs = static_cast<std::uint8_t>(
      std::min(args.size(), Event::kMaxArgs));
  for (std::size_t i = 0; i < e.nargs; ++i) e.args[i] = args[i];
  push(e);
  if (tracer_->domain() == ClockDomain::kVirtual) {
    vclock_ = std::max(vclock_, ts) + 1.0;
  }
}

void Track::summarize(std::string_view name, double dur, double self,
                      CounterList args) {
  auto it = summary_.find(name);
  if (it == summary_.end()) {
    it = summary_.emplace(std::string(name), PhaseSummary{}).first;
  }
  PhaseSummary& p = it->second;
  ++p.count;
  p.total_us += dur;
  p.max_us = std::max(p.max_us, dur);
  p.self_us += self;
  for (const Counter& c : args) {
    auto cit = p.counters.find(std::string_view(c.name));
    if (cit == p.counters.end()) {
      p.counters.emplace(std::string(c.name), c.value);
    } else {
      cit->second += c.value;
    }
  }
}

void Track::begin(const char* name, CounterList args) {
  if (!recording()) return;
  begin_at(name, now(), args);
}

void Track::begin_at(const char* name, double ts, CounterList args) {
  if (!recording()) return;
  record(EventPhase::kBegin, name, ts, 0.0, args);
  stack_.push_back(OpenSpan{name, ts, 0.0});
}

void Track::end(CounterList args) {
  if (!recording()) return;
  end_at(now(), args);
}

void Track::end_at(double ts, CounterList args) {
  if (!recording()) return;
  if (stack_.empty()) return;  // unbalanced end: drop rather than corrupt
  OpenSpan span = stack_.back();
  stack_.pop_back();
  record(EventPhase::kEnd, span.name, ts, 0.0, args);
  const double dur = ts - span.t0;
  if (!stack_.empty()) stack_.back().child_us += dur;
  summarize(span.name, dur, dur - span.child_us, args);
}

void Track::complete_at(const char* name, double t0, double dur,
                        CounterList args) {
  if (!recording()) return;
  record(EventPhase::kComplete, name, t0, dur, args);
  if (!stack_.empty()) stack_.back().child_us += dur;
  summarize(name, dur, dur, args);
}

void Track::instant(const char* name, CounterList args) {
  if (!recording()) return;
  instant_at(name, now(), args);
}

void Track::instant_at(const char* name, double ts, CounterList args) {
  if (!recording()) return;
  record(EventPhase::kInstant, name, ts, 0.0, args);
  summarize(name, 0.0, 0.0, args);
}

std::vector<Event> Track::events() const {
  std::vector<Event> out;
  if (count_ == 0) return out;
  out.reserve(count_);
  const std::size_t first = (head_ + ring_cap_ - count_) % ring_cap_;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(first + i) % ring_cap_]);
  }
  return out;
}

void Track::reset() {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  vclock_ = 0.0;
  stack_.clear();
  summary_.clear();
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(ClockDomain domain)
    : domain_(domain), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

double Tracer::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::enable(bool on) {
  if (on && !enabled()) {
    // Size the rings before recording starts, so no recorder can be
    // pushing into a track while its ring is allocated.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : tracks_) t->size_ring();
  }
  enabled_.store(on, std::memory_order_release);
}

Track& Tracer::track(std::string_view name, int pid, int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) {
    if (t->name() == name) return *t;
  }
  tracks_.emplace_back(
      std::unique_ptr<Track>(new Track(this, std::string(name), pid, tid)));
  if (enabled()) tracks_.back()->size_ring();
  return *tracks_.back();
}

const char* Tracer::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = intern_index_.find(s);
  if (it != intern_index_.end()) return it->second;
  interned_.emplace_back(s);
  const char* p = interned_.back().c_str();
  intern_index_.emplace(interned_.back(), p);
  return p;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) t->reset();
}

Summary Tracer::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary merged;
  for (const auto& t : tracks_) {
    for (const auto& [name, p] : t->summary_) {
      PhaseSummary& m = merged[name];
      m.count += p.count;
      m.total_us += p.total_us;
      m.max_us = std::max(m.max_us, p.max_us);
      m.self_us += p.self_us;
      for (const auto& [cname, v] : p.counters) m.counters[cname] += v;
    }
  }
  return merged;
}

namespace {

void append_track_events(std::string& out, bool& first, const Track& trk,
                         int pid_offset, const std::string& label) {
  const int pid = trk.pid() + pid_offset;
  // Metadata: name the process row and the thread row.
  auto emit_meta = [&](const char* what, std::string_view value) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += what;
    out += "\",\"ph\":\"M\",\"pid\":";
    append_f(out, "%d", pid);
    out += ",\"tid\":";
    append_f(out, "%d", trk.tid());
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, value);
    out += "\"}}";
  };
  std::string pname = label.empty() ? std::string("swcam")
                                    : label;
  emit_meta("process_name", pname);
  emit_meta("thread_name", trk.name());

  // Skip unbalanced 'E' events (possible after ring overflow evicted the
  // matching 'B'): track depth per event stream.
  long depth = 0;
  for (const Event& e : trk.events()) {
    if (e.ph == EventPhase::kEnd) {
      if (depth == 0) continue;
      --depth;
    } else if (e.ph == EventPhase::kBegin) {
      ++depth;
    }
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"ph\":\"";
    out += static_cast<char>(e.ph);
    out += "\",\"pid\":";
    append_f(out, "%d", pid);
    out += ",\"tid\":";
    append_f(out, "%d", trk.tid());
    out += ",\"ts\":";
    append_ts(out, e.ts);
    if (e.ph == EventPhase::kComplete) {
      out += ",\"dur\":";
      append_ts(out, e.dur);
    }
    if (e.ph == EventPhase::kInstant) out += ",\"s\":\"t\"";
    if (e.nargs > 0) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.nargs; ++i) {
        if (i > 0) out += ",";
        out += "\"";
        append_escaped(out, e.args[i].name);
        out += "\":";
        append_f(out, "%" PRIu64, e.args[i].value);
      }
      out += "}";
    }
    out += "}";
  }
}

std::vector<const Track*> sorted_tracks(
    const std::vector<std::unique_ptr<Track>>& tracks) {
  std::vector<const Track*> out;
  out.reserve(tracks.size());
  for (const auto& t : tracks) out.push_back(t.get());
  // Export order is sorted, not creation order: rank threads create their
  // tracks in nondeterministic order, and goldens must not see that.
  std::sort(out.begin(), out.end(), [](const Track* a, const Track* b) {
    if (a->pid() != b->pid()) return a->pid() < b->pid();
    if (a->tid() != b->tid()) return a->tid() < b->tid();
    return a->name() < b->name();
  });
  return out;
}

}  // namespace

void Tracer::append_events(std::string& out, bool& first) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Track* trk : sorted_tracks(tracks_)) {
    append_track_events(out, first, *trk, pid_offset_, label_);
  }
}

std::string Tracer::chrome_trace() const {
  Tracer* self = const_cast<Tracer*>(this);
  return obs::chrome_trace(std::span<Tracer* const>(&self, 1));
}

std::string chrome_trace(std::span<Tracer* const> tracers) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const Tracer* t : tracers) {
    if (t != nullptr) t->append_events(out, first);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  Tracer* self = const_cast<Tracer*>(this);
  return obs::write_chrome_trace(
      path, std::span<Tracer* const>(&self, 1));
}

bool write_chrome_trace(const std::string& path,
                        std::span<Tracer* const> tracers) {
  const std::string doc = chrome_trace(tracers);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

std::string Tracer::summary_table() const {
  const Summary s = summary();
  std::string out;
  append_f(out, "%-36s %8s %14s %14s %14s\n", "phase", "count", "total(us)",
           "max(us)", "self(us)");
  for (const auto& [name, p] : s) {
    append_f(out, "%-36s %8" PRIu64 " %14.3f %14.3f %14.3f\n", name.c_str(),
             p.count, p.total_us, p.max_us, p.self_us);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Summary helpers

namespace {
bool phase_matches(std::string_view name, std::string_view prefix) {
  if (name == prefix) return true;
  return name.size() > prefix.size() + 1 &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name[prefix.size()] == ':';
}
}  // namespace

double phase_total_us(const Summary& s, std::string_view prefix) {
  double total = 0.0;
  for (const auto& [name, p] : s) {
    if (phase_matches(name, prefix)) total += p.total_us;
  }
  return total;
}

std::uint64_t phase_count(const Summary& s, std::string_view prefix) {
  std::uint64_t n = 0;
  for (const auto& [name, p] : s) {
    if (phase_matches(name, prefix)) n += p.count;
  }
  return n;
}

std::uint64_t phase_counter(const Summary& s, std::string_view prefix,
                            std::string_view key) {
  std::uint64_t total = 0;
  for (const auto& [name, p] : s) {
    if (!phase_matches(name, prefix)) continue;
    auto it = p.counters.find(key);
    if (it != p.counters.end()) total += it->second;
  }
  return total;
}

std::uint64_t phase_counter_delta(const Summary& before, const Summary& after,
                                  std::string_view prefix,
                                  std::string_view key) {
  return phase_counter(after, prefix, key) - phase_counter(before, prefix, key);
}

}  // namespace obs
