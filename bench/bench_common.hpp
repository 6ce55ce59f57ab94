#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/report.hpp"
#include "scenario/registry.hpp"

/// \file bench_common.hpp
/// The one bench CLI parser. Every bench used to hand-roll (or skip) the
/// same flag extraction; BenchOptions::parse pulls the shared flags out
/// of argc/argv — before google-benchmark sees the rest — in one place:
///   --json <path>    machine-readable obs::Report
///   --trace <path>   Chrome trace-event timeline
///   --small          reduced problem size (CI smoke)
///   --steps <n>      override the bench's step count
///   --ne <n>         override the bench's mesh resolution
///   --core-groups <n> core groups per processor/pool. Every bench accepts
///                    it uniformly; it only affects pipeline-backend runs —
///                    host-backend (and analytic) benches parse and ignore
///                    it, so one CI matrix drives all binaries.
///   --scenario <name> run the named scenario:: registry workload
///                    (strict: an unknown name exits 2 with the known list)
///   --list-scenarios  print the registered workload table and exit 0
///
/// Parsing is strict: every value is read with strtol and must be a
/// complete decimal integer within [min, 1e9] — a missing, non-numeric,
/// trailing-junk or below-minimum value aborts with a message on stderr
/// (exit 2). String flags are validated the same way (--scenario must
/// name a registered workload). The unset sentinel is -1 everywhere, and
/// every _or accessor tests `>= 0`, so an explicit "--steps 0" really
/// means zero steps rather than "use the default".

namespace bench {

struct BenchOptions {
  std::string json_path;   ///< --json
  std::string trace_path;  ///< --trace
  bool small = false;      ///< --small
  int steps = -1;          ///< --steps; -1 = bench default
  int ne = -1;             ///< --ne; -1 = bench default
  int core_groups = -1;    ///< --core-groups; -1 = bench default
  std::string scenario;    ///< --scenario; empty = bench default

  int steps_or(int fallback) const { return steps >= 0 ? steps : fallback; }
  int ne_or(int fallback) const { return ne >= 0 ? ne : fallback; }
  int core_groups_or(int fallback) const {
    return core_groups >= 0 ? core_groups : fallback;
  }
  std::string scenario_or(const char* fallback) const {
    return scenario.empty() ? fallback : scenario;
  }

  /// The shared flags, one line each — printed on --list-scenarios
  /// misuse and kept in sync with the doc comment above.
  static const char* usage() {
    return
        "shared bench flags:\n"
        "  --json <path>       machine-readable obs::Report\n"
        "  --trace <path>      Chrome trace-event timeline\n"
        "  --small             reduced problem size (CI smoke)\n"
        "  --steps <n>         override the bench's step count\n"
        "  --ne <n>            override the bench's mesh resolution\n"
        "  --core-groups <n>   core groups per processor/pool; accepted by\n"
        "                      every bench, only affects pipeline-backend\n"
        "                      runs (host-backend benches parse + ignore)\n"
        "  --scenario <name>   run the named scenario:: registry workload\n"
        "  --list-scenarios    print the registered workloads and exit\n";
  }

  /// Print the registry as a table (what --list-scenarios shows).
  static void print_scenarios(std::FILE* out) {
    std::fprintf(out, "%-22s %-11s %s\n", "name", "kind", "title");
    for (const auto& name : scenario::names()) {
      const scenario::Scenario& sc = scenario::get(name);
      std::fprintf(out, "%-22s %-11s %s\n", sc.name.c_str(), sc.kind.c_str(),
                   sc.title.c_str());
    }
  }

  /// Extract (and remove) the shared flags so benchmark::Initialize only
  /// sees what it understands.
  static BenchOptions parse(int& argc, char** argv) {
    BenchOptions opts;
    const obs::CliOptions cli = obs::extract_cli(argc, argv);
    opts.json_path = cli.json_path;
    opts.trace_path = cli.trace_path;
    opts.small = cli.small;

    auto die = [](const char* flag, const char* what, const char* got) {
      std::fprintf(stderr, "bench: %s %s (got \"%s\")\n%s", flag, what, got,
                   usage());
      std::exit(2);
    };
    auto drop = [&](int i, int n) {
      for (int j = i; j + n < argc; ++j) argv[j] = argv[j + n];
      argc -= n;
    };
    auto take_int = [&](const char* flag, int& out, long min_value) {
      for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0) continue;
        if (i + 1 >= argc) die(flag, "requires a value", "");
        const char* text = argv[i + 1];
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0') {
          die(flag, "expects an integer", text);
        }
        if (errno == ERANGE || v < min_value || v > 1000000000L) {
          die(flag, "value out of range", text);
        }
        out = static_cast<int>(v);
        drop(i, 2);
        return;
      }
    };
    take_int("--steps", opts.steps, 0);
    take_int("--ne", opts.ne, 1);
    take_int("--core-groups", opts.core_groups, 1);

    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list-scenarios") != 0) continue;
      print_scenarios(stdout);
      std::exit(0);
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--scenario") != 0) continue;
      if (i + 1 >= argc) die("--scenario", "requires a value", "");
      const char* name = argv[i + 1];
      if (scenario::find(name) == nullptr) {
        std::string known;
        for (const auto& n : scenario::names()) {
          known += known.empty() ? n : ", " + n;
        }
        std::fprintf(stderr, "bench: --scenario names an unknown workload "
                             "(got \"%s\"; known: %s)\n%s",
                     name, known.c_str(), usage());
        std::exit(2);
      }
      opts.scenario = name;
      drop(i, 2);
      break;
    }
    return opts;
  }
};

}  // namespace bench
