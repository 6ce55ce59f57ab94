// Golden one-rank digests: model::state_digest of every builtin scenario
// after a few steps at a small shape, pinned to the exact bits. Any change
// to the order or the arithmetic of a one-rank step — dycore, tracer
// advection, hyperviscosity, remap, physics or the pipeline accelerator —
// changes a digest and fails here. A PR that changes the numerics on
// purpose re-records the table and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "model/session.hpp"
#include "scenario/registry.hpp"

namespace {

struct Golden {
  const char* scenario;
  model::SessionConfig::Backend backend;
  std::uint32_t digest;
  int ne = 2;
  int nlev = 4;
  int core_groups = 1;
};

using Backend = model::SessionConfig::Backend;

// Recorded with ne2/L4 unless an entry says otherwise, remap every 2
// steps, 3 steps through scenario::run (forcing schedule included), so
// every run crosses one vertical remap and takes one more step after it.
// The last two entries pin a remap sharded over 4 core groups and a
// host run with many elements per host thread (ne4/L8).
constexpr Golden kGolden[] = {
    {"aquaplanet", Backend::kHost, 0xc1565494u},
    {"baroclinic-wave", Backend::kHost, 0x630357b5u},
    {"fig4-validation", Backend::kHost, 0xc1565494u},
    {"held-suarez", Backend::kHost, 0xd6accc4eu},
    {"katrina", Backend::kHost, 0xa0a577f5u},
    {"nggps", Backend::kHost, 0xaefc7a6eu},
    {"storm-track-ensemble", Backend::kHost, 0xa0a577f5u},
    {"tracer-advection", Backend::kHost, 0xa1ad5dd4u},
    {"aquaplanet", Backend::kPipeline, 0xff047e8du},
    {"aquaplanet", Backend::kPipeline, 0xff047e8du, 2, 4, 4},
    {"aquaplanet", Backend::kHost, 0x286306eau, 4, 8},
};

constexpr int kSteps = 3;

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08xu", v);
  return buf;
}

TEST(GoldenDigest, EveryBuiltinScenarioAtOneRankIsBitStable) {
  for (const Golden& g : kGolden) {
    const bool pipeline = g.backend == Backend::kPipeline;
    SCOPED_TRACE(std::string(g.scenario) + (pipeline ? " (pipeline)" : "") +
                 " ne" + std::to_string(g.ne) + "/L" + std::to_string(g.nlev) +
                 " cg" + std::to_string(g.core_groups));
    const scenario::Scenario& sc = scenario::get(g.scenario);
    scenario::Overrides ov;
    ov.ne = g.ne;
    ov.nlev = g.nlev;
    ov.core_groups = g.core_groups;
    ov.remap_freq = 2;
    ov.nranks = 1;
    ov.backend = g.backend;
    auto s = sc.session(ov);
    scenario::run(sc, *s, kSteps);
    ASSERT_EQ(s->step_count(), kSteps);
    const std::uint32_t got = model::state_digest(s->state(), s->step_count());
    EXPECT_EQ(hex(got), hex(g.digest));
  }
}

}  // namespace
