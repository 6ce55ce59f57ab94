// Tests of the benchmark's own statistics and command line.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, CountsSamplesBeyondTheNearestRank) {
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Percentile, NearestRankValues) {
  EXPECT_EQ(percentile(ramp(20), 0.5), 10.0);
  EXPECT_EQ(percentile(ramp(100), 0.9), 90.0);
  EXPECT_EQ(percentile(ramp(1000), 0.99), 990.0);
  EXPECT_EQ(median(ramp(21)), 11.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_THROW(percentile(ramp(19), 0.5), InsufficientSamples);
  EXPECT_THROW(percentile(ramp(99), 0.9), InsufficientSamples);
  EXPECT_THROW(percentile(ramp(999), 0.99), InsufficientSamples);
  EXPECT_THROW(percentile({}, 0.5), InsufficientSamples);
  EXPECT_NO_THROW(percentile(ramp(1000), 0.99));
}

TEST(Percentile, RefusesQOutsideTheOpenUnitInterval) {
  EXPECT_THROW(percentile(ramp(100), 0.0), InsufficientSamples);
  EXPECT_THROW(percentile(ramp(100), 1.0), InsufficientSamples);
  EXPECT_THROW(percentile(ramp(100), -0.5), InsufficientSamples);
}

TEST(Quartiles, NearestRankQuartiles) {
  const Quartiles q = quartiles(ramp(40));
  EXPECT_EQ(q.q1, 10.0);
  EXPECT_EQ(q.median, 20.0);
  EXPECT_EQ(q.q3, 30.0);
}

TEST(Quartiles, RefusedBelowFortySamples) {
  EXPECT_THROW(quartiles(ramp(39)), InsufficientSamples);
}

std::vector<std::string> line(std::string workload, std::string seed,
                              std::string seconds = "10",
                              std::string trace = "0") {
  return {"--workload", workload, "--seed", seed,
          "--seconds", seconds, "--trace", trace};
}

TEST(Args, ParsesAWellFormedLine) {
  const Args a = parse_args(line("ensemble-service", "18446744073709551615",
                                 "20", "1"));
  EXPECT_EQ(a.workload, Workload::kEnsembleService);
  EXPECT_EQ(a.seed, 18446744073709551615ull);
  EXPECT_EQ(a.seconds, 20);
  EXPECT_TRUE(a.trace);
  EXPECT_TRUE(a.workdir.empty());
}

TEST(Args, MalformedWorkloadIsATypedError) {
  EXPECT_THROW(parse_args(line("climate_hero", "1")), ArgError);
  EXPECT_THROW(parse_args(line("", "1")), ArgError);
  try {
    parse_args(line("nope", "1"));
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel-dycore"),
              std::string::npos);
  }
}

TEST(Args, MalformedSeedIsATypedError) {
  for (const char* seed : {"", "-1", "+1", "1.5", "0x10", "12a", " 1",
                           "18446744073709551616"}) {
    EXPECT_THROW(parse_args(line("climate-hero", seed)), ArgError) << seed;
  }
}

TEST(Args, OtherMalformedValuesAreTypedErrors) {
  EXPECT_THROW(parse_args(line("climate-hero", "1", "0")), ArgError);
  EXPECT_THROW(parse_args(line("climate-hero", "1", "601")), ArgError);
  EXPECT_THROW(parse_args(line("climate-hero", "1", "10", "2")), ArgError);
  EXPECT_THROW(parse_args({"--workload", "climate-hero", "--seed", "1"}),
               ArgError);
  EXPECT_THROW(parse_args({"--bogus", "1"}), ArgError);
  EXPECT_THROW(parse_args({"--seed"}), ArgError);
  auto twice = line("climate-hero", "1");
  twice.insert(twice.end(), {"--seed", "2"});
  EXPECT_THROW(parse_args(twice), ArgError);
}

TEST(ResultJson, PrintsEveryDigitAndRejectsNonFinite) {
  const std::string j = result_json(true, 3, 0, {{"a_ms", 0.1, "ms"}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"a_ms\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"ms\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"x", 1.0 / 0.0, "ms"}}),
               std::logic_error);
}

}  // namespace
}  // namespace perfbench
