// Edge cases of the CpeCounters algebra (operator+= merge, snapshot
// deltas) and of the obs:: counter-attachment path that Table 1 now
// consumes: the launch-span summary must reproduce KernelStats exactly.

#include <gtest/gtest.h>

#include <cstring>

#include "accel/table1.hpp"
#include "obs/trace.hpp"
#include "sw/counters.hpp"

namespace {

sw::CpeCounters sample(std::uint64_t base) {
  sw::CpeCounters c;
  c.scalar_flops = base + 1;
  c.vector_flops = base + 2;
  c.dma_get_bytes = base + 3;
  c.dma_put_bytes = base + 4;
  c.dma_ops = base + 5;
  c.reg_sends = base + 6;
  c.reg_recvs = base + 7;
  c.ldm_peak_bytes = base + 8;
  c.dma_reused_bytes = base + 9;
  c.dma_cold_bytes = base + 10;
  c.host_fallbacks = base + 11;
  c.mc_contended_ops = base + 12;
  c.mc_stall_cycles = base + 13;
  return c;
}

TEST(CpeCounters, PlusEqSumsAdditiveFields) {
  sw::CpeCounters a = sample(100);
  const sw::CpeCounters b = sample(1000);
  a += b;
  EXPECT_EQ(a.scalar_flops, 101u + 1001u);
  EXPECT_EQ(a.vector_flops, 102u + 1002u);
  EXPECT_EQ(a.dma_get_bytes, 103u + 1003u);
  EXPECT_EQ(a.dma_put_bytes, 104u + 1004u);
  EXPECT_EQ(a.dma_ops, 105u + 1005u);
  EXPECT_EQ(a.reg_sends, 106u + 1006u);
  EXPECT_EQ(a.reg_recvs, 107u + 1007u);
  EXPECT_EQ(a.dma_reused_bytes, 109u + 1009u);
  EXPECT_EQ(a.dma_cold_bytes, 110u + 1010u);
  EXPECT_EQ(a.host_fallbacks, 111u + 1011u);
  EXPECT_EQ(a.mc_contended_ops, 112u + 1012u);
  EXPECT_EQ(a.mc_stall_cycles, 113u + 1013u);
}

TEST(CpeCounters, PlusEqKeepsLdmPeakMax) {
  // The LDM high-water mark merges by max, not sum — in both directions.
  sw::CpeCounters lo, hi;
  lo.ldm_peak_bytes = 100;
  hi.ldm_peak_bytes = 64 * 1024;
  sw::CpeCounters a = lo;
  a += hi;
  EXPECT_EQ(a.ldm_peak_bytes, 64u * 1024u);
  sw::CpeCounters b = hi;
  b += lo;
  EXPECT_EQ(b.ldm_peak_bytes, 64u * 1024u);
}

TEST(CpeCounters, PlusEqZeroIsIdentityForPeak) {
  sw::CpeCounters a;
  a.ldm_peak_bytes = 42;
  a += sw::CpeCounters{};
  EXPECT_EQ(a.ldm_peak_bytes, 42u);
}

TEST(CpeCounters, DeltaSubtractsAdditiveKeepsAfterPeak) {
  const sw::CpeCounters before = sample(100);
  sw::CpeCounters after = sample(100);
  after += sample(50);  // accumulate further work on the same CPE
  const sw::CpeCounters d = sw::counters_delta(after, before);
  EXPECT_EQ(d.scalar_flops, 51u);
  EXPECT_EQ(d.vector_flops, 52u);
  EXPECT_EQ(d.dma_get_bytes, 53u);
  EXPECT_EQ(d.dma_put_bytes, 54u);
  EXPECT_EQ(d.dma_ops, 55u);
  EXPECT_EQ(d.reg_sends, 56u);
  EXPECT_EQ(d.reg_recvs, 57u);
  EXPECT_EQ(d.dma_reused_bytes, 59u);
  EXPECT_EQ(d.dma_cold_bytes, 60u);
  EXPECT_EQ(d.host_fallbacks, 61u);
  // Not a subtraction: the delta reports the surviving high-water mark.
  EXPECT_EQ(d.ldm_peak_bytes, after.ldm_peak_bytes);
}

TEST(CpeCounters, DeltaOfEqualSnapshotsIsZeroExceptPeak) {
  const sw::CpeCounters s = sample(7);
  const sw::CpeCounters d = sw::counters_delta(s, s);
  EXPECT_EQ(d.scalar_flops, 0u);
  EXPECT_EQ(d.total_dma_bytes(), 0u);
  EXPECT_EQ(d.dma_reused_bytes, 0u);
  EXPECT_EQ(d.dma_cold_bytes, 0u);
  EXPECT_EQ(d.ldm_peak_bytes, s.ldm_peak_bytes);
}

TEST(CounterAttachment, CarriesEveryFieldByName) {
  const sw::CpeCounters c = sample(1000);
  const sw::CounterAttachment a = sw::counter_attachment(c);
  const obs::CounterList list = a;
  ASSERT_EQ(list.size(), 13u);
  auto find = [&](const char* name) -> std::uint64_t {
    for (const obs::Counter& ctr : list) {
      if (std::strcmp(ctr.name, name) == 0) return ctr.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(find("scalar_flops"), c.scalar_flops);
  EXPECT_EQ(find("vector_flops"), c.vector_flops);
  EXPECT_EQ(find("dma_get_bytes"), c.dma_get_bytes);
  EXPECT_EQ(find("dma_put_bytes"), c.dma_put_bytes);
  EXPECT_EQ(find("dma_ops"), c.dma_ops);
  EXPECT_EQ(find("reg_sends"), c.reg_sends);
  EXPECT_EQ(find("reg_recvs"), c.reg_recvs);
  EXPECT_EQ(find("ldm_peak_bytes"), c.ldm_peak_bytes);
  EXPECT_EQ(find("dma_reused_bytes"), c.dma_reused_bytes);
  EXPECT_EQ(find("dma_cold_bytes"), c.dma_cold_bytes);
  EXPECT_EQ(find("host_fallbacks"), c.host_fallbacks);
  EXPECT_EQ(find("mc_contended_ops"), c.mc_contended_ops);
  EXPECT_EQ(find("mc_stall_cycles"), c.mc_stall_cycles);
}

TEST(CounterAttachment, SummaryDeltaIsolatesOneSpan) {
  // The extraction pattern Table 1 uses: snapshot the summary around one
  // launch span and read the per-launch counters as a delta, on a tracer
  // that keeps accumulating.
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("cg", 64, 0);

  sw::CpeCounters first;
  first.vector_flops = 100;
  first.dma_get_bytes = 64;
  t.begin("launch");
  t.end(sw::counter_attachment(first));

  const obs::Summary mid = tr.summary();
  sw::CpeCounters second;
  second.vector_flops = 7;
  second.dma_get_bytes = 9;
  t.begin("launch");
  t.end(sw::counter_attachment(second));
  const obs::Summary after = tr.summary();

  EXPECT_EQ(obs::phase_counter(after, "launch", "vector_flops"), 107u);
  EXPECT_EQ(obs::phase_counter_delta(mid, after, "launch", "vector_flops"),
            7u);
  EXPECT_EQ(obs::phase_counter_delta(mid, after, "launch", "dma_get_bytes"),
            9u);
}

TEST(Table1, ObsCounterPathMatchesKernelStats) {
  // run_table1 self-checks: it throws std::logic_error if the obs::
  // launch-span counter path drifts from the KernelStats totals (double
  // counting either way). A tiny config keeps this fast.
  accel::Table1Config cfg;
  cfg.nelem = 4;
  cfg.nlev = 16;
  cfg.qsize = 2;
  cfg.mesh_ne = 2;
  sw::CoreGroup cg;
  std::vector<accel::Table1Row> rows;
  ASSERT_NO_THROW(rows = accel::run_table1(cg, cfg));
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& r : rows) {
    EXPECT_GT(r.flops, 0u) << r.name;
    EXPECT_GT(r.athread_dma_bytes, 0u) << r.name;
    EXPECT_EQ(r.athread_fallbacks, 0u) << r.name;
    EXPECT_GT(r.athread_s, 0.0) << r.name;
  }
}

TEST(Table1, ExternalTracerKeepsTimeline) {
  accel::Table1Config cfg;
  cfg.nelem = 4;
  cfg.nlev = 16;
  cfg.qsize = 2;
  cfg.mesh_ne = 2;
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  sw::CoreGroup cg;
  (void)accel::run_table1(cg, cfg, &tr);
  // The group outlives the call and must not keep pointing at its tracer.
  EXPECT_EQ(cg.tracer(), nullptr);
  const obs::Summary sum = tr.summary();
  // 6 kernels x (openacc + athread) = 12 launch spans.
  EXPECT_EQ(obs::phase_count(sum, "launch"), 12u);
  // The athread pipeline launches additionally carry per-kernel complete
  // events nested in the launch span.
  EXPECT_GE(obs::phase_count(sum, "kernel"), 6u);
  // No double counting: "kernel:*" phases are not matched by the "launch"
  // prefix, so flops seen under "launch" equal the sum of both platforms'
  // measured work, not twice that.
  const std::uint64_t launch_flops =
      obs::phase_counter(sum, "launch", "scalar_flops") +
      obs::phase_counter(sum, "launch", "vector_flops");
  EXPECT_GT(launch_flops, 0u);
}

}  // namespace
