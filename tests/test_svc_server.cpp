// Service front-end hardening: admission verdicts must follow tenant
// quotas, Faulted members must retry with the deterministic backoff
// schedule and converge to the fault-free digest, a graceful drain must
// park in-flight members at a checkpoint, and a restart must resume them
// to final states bit-identical to an uninterrupted run. A fault-injected
// soak runs all of that at once and checks nothing leaks.

#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sw/fault.hpp"

namespace {

using svc::Admission;
using svc::MemberPhase;
using svc::RunRequest;
using svc::RunState;
using svc::Server;
using svc::ServerConfig;
using svc::ServerState;
using svc::TenantQuota;

model::SessionConfig tiny_config(int ne = 2) {
  return model::SessionConfig{}.with_ne(ne).with_levels(4, 1);
}

RunRequest make_request(int steps, model::SessionConfig cfg = tiny_config()) {
  RunRequest req;
  req.config = cfg;
  req.steps = steps;
  return req;
}

/// Fault-free digest of one config run to \p steps on a throwaway engine.
std::uint32_t reference_digest(const model::SessionConfig& cfg, int steps) {
  svc::Engine engine(svc::EngineConfig{});
  RunRequest req;
  req.config = cfg;
  req.steps = steps;
  auto ticket = engine.submit(req);
  const svc::RunResult& res = ticket->wait();
  EXPECT_EQ(res.state, RunState::kCompleted);
  return res.state_crc;
}

ServerConfig fast_retry_config() {
  ServerConfig cfg;
  cfg.engine.workers = 2;
  cfg.retry.max_attempts = 3;
  cfg.retry.sleep_scale = 0.0;  // virtual time: retries fire immediately
  cfg.checkpoint_dir = ::testing::TempDir();
  cfg.checkpoint_freq = 4;
  return cfg;
}

void wait_for_running(const svc::RunTicket& t) {
  while (t->state() == RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerAdmission, VerdictsFollowTenantQuota) {
  ServerConfig cfg;
  cfg.engine.workers = 1;
  cfg.checkpoint_dir.clear();
  Server server(cfg);
  TenantQuota quota;
  quota.max_active = 2;
  quota.soft_active = 1;
  quota.tier = 3;
  quota.throttle_priority = -1;
  server.add_tenant("research", quota);

  // Members long enough to still be active while we probe the quota.
  RunRequest slow = make_request(50);
  slow.step_stall_s = 0.004;

  const auto first = server.submit("research", "m1", slow);
  EXPECT_EQ(first.admission, Admission::kAdmitted);
  EXPECT_EQ(first.priority, 3);
  ASSERT_NE(first.ticket, nullptr);

  const auto second = server.submit("research", "m2", slow);
  EXPECT_EQ(second.admission, Admission::kThrottled);
  EXPECT_EQ(second.priority, -1);
  ASSERT_NE(second.ticket, nullptr);

  const auto third = server.submit("research", "m3", slow);
  EXPECT_EQ(third.admission, Admission::kRejected);
  EXPECT_NE(third.reason.find("hard cap"), std::string::npos);
  EXPECT_EQ(third.ticket, nullptr);

  const auto unknown = server.submit("nobody", "m4", make_request(1));
  EXPECT_EQ(unknown.admission, Admission::kRejected);
  EXPECT_NE(unknown.reason.find("unknown tenant"), std::string::npos);

  const auto duplicate = server.submit("research", "m1", make_request(1));
  EXPECT_EQ(duplicate.admission, Admission::kRejected);
  EXPECT_NE(duplicate.reason.find("already exists"), std::string::npos);

  server.wait_idle();
  // Slots freed on completion: the tenant can admit again.
  const auto after = server.submit("research", "m5", make_request(1));
  EXPECT_EQ(after.admission, Admission::kAdmitted);
  server.wait_idle();
  EXPECT_EQ(server.member("m5").phase, MemberPhase::kDone);
  EXPECT_EQ(server.member("m5").last_state, RunState::kCompleted);
}

TEST(ServerRetry, FaultedParallelMemberRetriesToFaultFreeDigest) {
  model::SessionConfig cfg = tiny_config();
  cfg.with_ranks(2).with_watchdog(0.2);
  const int steps = 8;
  const std::uint32_t want = reference_digest(tiny_config().with_ranks(2),
                                              steps);

  sw::FaultPlan plan(2024);
  plan.inject({sw::FaultKind::kMsgDrop, /*target=*/0, /*op_index=*/3});
  cfg.faults = &plan;

  ServerConfig scfg = fast_retry_config();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  const auto out = server.submit("ops", "par", make_request(steps, cfg));
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  server.wait_idle();

  const auto status = server.member("par");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kCompleted);
  EXPECT_EQ(status.attempts, 2);  // one fault, one clean retry
  ASSERT_EQ(status.retry_delays_s.size(), 1u);
  EXPECT_GT(status.retry_delays_s[0], 0.0);
  EXPECT_EQ(status.state_crc, want);
  EXPECT_EQ(server.retries(), 1u);
  EXPECT_EQ(plan.fired_count(), 1u);  // the spec fired once, ever
  EXPECT_GE(server.engine_stats().faulted, 1u);
}

TEST(ServerRetry, PersistentBlowupExhaustsBoundedAttempts) {
  // A CFL-violating dt blows up the monitor on every attempt — the
  // member must stop at max_attempts, not retry forever.
  model::SessionConfig cfg = tiny_config();
  cfg.with_dt(50000.0).with_monitor();

  ServerConfig scfg = fast_retry_config();
  scfg.retry.max_attempts = 2;
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  const auto out = server.submit("ops", "doomed", make_request(20, cfg));
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  server.wait_idle();

  const auto status = server.member("doomed");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kFaulted);
  EXPECT_EQ(status.attempts, 2);
  EXPECT_EQ(status.retry_delays_s.size(), 1u);
  EXPECT_FALSE(status.error.empty());
  EXPECT_GE(server.engine_stats().faulted, 2u);
}

TEST(ServerLifecycle, DrainParksRunningMemberAndRestartResumesDigest) {
  const int steps = 60;
  const std::uint32_t want = reference_digest(tiny_config(), steps);

  ServerConfig scfg = fast_retry_config();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  RunRequest slow = make_request(steps);
  slow.step_stall_s = 0.01;  // ~600 ms total: drain lands mid-run
  const auto out = server.submit("ops", "longrun", slow);
  ASSERT_EQ(out.admission, Admission::kAdmitted);
  wait_for_running(out.ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.drain();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  const auto parked = server.member("longrun");
  ASSERT_EQ(parked.phase, MemberPhase::kParked);
  EXPECT_EQ(parked.last_state, RunState::kCancelled);

  // A stopped server admits nothing.
  const auto refused = server.submit("ops", "late", make_request(1));
  EXPECT_EQ(refused.admission, Admission::kRejected);
  EXPECT_NE(refused.reason.find("not admitting"), std::string::npos);

  server.restart();
  EXPECT_EQ(server.state(), ServerState::kAdmitting);
  server.wait_idle();

  const auto status = server.member("longrun");
  EXPECT_EQ(status.phase, MemberPhase::kDone);
  EXPECT_EQ(status.last_state, RunState::kCompleted);
  EXPECT_EQ(status.restarts, 1);
  EXPECT_GT(status.resumed_from, 0);  // continued, not re-run from 0
  EXPECT_EQ(status.state_crc, want);
  EXPECT_EQ(server.restarts(), 1u);
  EXPECT_GE(server.engine_stats().resumed, 1u);
}

TEST(ServerLifecycle, DrainIsIdempotentAndDestructionIsClean) {
  ServerConfig scfg = fast_retry_config();
  auto server = std::make_unique<Server>(scfg);
  server->add_tenant("ops", TenantQuota{});
  server->submit("ops", "quick", make_request(2));
  server->drain();
  server->drain();  // second drain is a no-op
  EXPECT_EQ(server->state(), ServerState::kStopped);
  server.reset();   // dtor on a stopped server must not hang
}

TEST(ServerMetrics, SnapshotCarriesPhaseTenantAndEngineCounters) {
  ServerConfig scfg = fast_retry_config();
  Server server(scfg);
  TenantQuota quota;
  quota.max_active = 1;
  server.add_tenant("batch", quota);
  server.submit("batch", "a", make_request(2));
  const auto rejected = server.submit("batch", "b", make_request(2));
  EXPECT_EQ(rejected.admission, Admission::kRejected);
  server.wait_idle();

  const std::string json = server.metrics().json();
  EXPECT_NE(json.find("\"members\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);

  const std::string flat = server.metrics_flat();
  // The rejected submission never became a member record.
  EXPECT_NE(flat.find("swcam.members.total 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.members.done 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.tenants.batch.admitted 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.tenants.batch.rejected 1"), std::string::npos);
  EXPECT_NE(flat.find("swcam.engine.completed 1"), std::string::npos);
  // Flat lines are numeric-only: the state string stays in the JSON form.
  EXPECT_EQ(flat.find("swcam.state"), std::string::npos);

  // Stats survive a drain: the retired accumulator keeps the totals.
  server.drain();
  EXPECT_GE(server.engine_stats().completed, 1u);
  EXPECT_NE(server.metrics_flat().find("swcam.engine.completed 1"),
            std::string::npos);
}

TEST(ServerMetrics, CoreGroupCountersFoldAcrossDrainAndRestart) {
  // Two pipeline members at a time on one shared 4-group pool: each is
  // placed on its own group, and their remap launches contend for the
  // pool's memory controller whenever they overlap in time.
  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.engine.cg_pools = 1;
  scfg.engine.core_groups_per_pool = 4;
  scfg.engine.placement = svc::EngineConfig::Placement::kPack;
  scfg.checkpoint_dir.clear();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});
  const model::SessionConfig pipeline = tiny_config().with_backend(
      model::SessionConfig::Backend::kPipeline);
  int pairs = 0;
  // Whether two launches overlap is up to host scheduling, so run pairs
  // until the folded stats show contention beyond \p floor (bounded).
  auto run_until_contended = [&](std::uint64_t floor) {
    for (int round = 0; round < 50; ++round) {
      for (const std::string m : {"a", "b"}) {
        const std::string name = std::to_string(pairs) + m;
        const auto out =
            server.submit("ops", name, make_request(40, pipeline));
        ASSERT_EQ(out.admission, Admission::kAdmitted);
      }
      ++pairs;
      server.wait_idle();
      if (server.engine_stats().cg_contended_ops > floor) return;
    }
  };

  run_until_contended(0);
  const svc::EngineStats live = server.engine_stats();
  EXPECT_EQ(live.placed_members, static_cast<std::uint64_t>(2 * pairs));
  EXPECT_EQ(live.cg_pools, 1u);
  EXPECT_GE(live.cg_groups_busy_high_water, 1);
  EXPECT_GE(live.cg_stream_high_water, 1);
  EXPECT_GT(live.cg_contended_ops, 0u);
  EXPECT_GT(live.cg_contended_bytes, 0u);

  // After a drain the totals live in the retired accumulator alone.
  server.drain();
  const svc::EngineStats retired = server.engine_stats();
  EXPECT_EQ(retired.placed_members, live.placed_members);
  EXPECT_EQ(retired.cg_pools, live.cg_pools);
  EXPECT_EQ(retired.cg_groups_busy_high_water,
            live.cg_groups_busy_high_water);
  EXPECT_EQ(retired.cg_stream_high_water, live.cg_stream_high_water);
  EXPECT_EQ(retired.cg_contended_ops, live.cg_contended_ops);
  EXPECT_EQ(retired.cg_contended_bytes, live.cg_contended_bytes);

  // A fresh engine's counters add to the retired ones.
  server.restart();
  run_until_contended(live.cg_contended_ops);
  const svc::EngineStats both = server.engine_stats();
  EXPECT_EQ(both.placed_members, static_cast<std::uint64_t>(2 * pairs));
  EXPECT_EQ(both.cg_pools, 1u);
  EXPECT_GE(both.cg_groups_busy_high_water,
            live.cg_groups_busy_high_water);
  EXPECT_GE(both.cg_stream_high_water, live.cg_stream_high_water);
  EXPECT_GT(both.cg_contended_ops, live.cg_contended_ops);
  EXPECT_GT(both.cg_contended_bytes, live.cg_contended_bytes);
}

TEST(ServerSoak, FaultsDrainsAndBurstsLeakNothing) {
  // Two waves of 3 sequential and 2 two-rank members. Half the two-rank
  // members drop a message mid-run and must retry to the fault-free
  // digest; each wave is drained mid-flight and restarted. Then a quota
  // burst, then the leak check over everything the server ever ran.
  const int kSteps = 10;
  const double kStall = 0.003;  // per step, so drains land mid-run
  auto seq_config = [](int i) { return tiny_config().with_remap_freq(1 + i % 3); };
  std::map<std::string, std::uint32_t> want;
  for (int i = 0; i < 3; ++i) {
    want["seq" + std::to_string(i)] = reference_digest(seq_config(i), kSteps);
  }
  want["par"] = reference_digest(tiny_config().with_ranks(2), kSteps);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "svc_soak";
  fs::create_directories(dir);
  ServerConfig scfg = fast_retry_config();
  scfg.engine.queue_capacity = 32;
  scfg.checkpoint_dir = dir.string();
  Server server(scfg);
  server.add_tenant("ops", TenantQuota{});

  auto expect_flat_keys = [&] {
    const std::string flat = server.metrics_flat();
    for (const char* key : {"swcam.members.total ", "swcam.engine.submitted ",
                            "swcam.retries "}) {
      EXPECT_NE(flat.find(key), std::string::npos) << key;
    }
  };

  // Fault plans must outlive every retry of their member, restarts too.
  std::vector<std::unique_ptr<sw::FaultPlan>> plans;
  std::map<std::string, std::string> digest_key;
  for (int w = 0; w < 2; ++w) {
    std::vector<svc::RunTicket> tickets;
    for (int i = 0; i < 5; ++i) {
      const bool par = i >= 3;
      const std::string name = "w" + std::to_string(w) + "_" +
                               std::to_string(i);
      RunRequest req = make_request(kSteps, par ? tiny_config().with_ranks(2)
                                                : seq_config(i));
      if (par) {
        req.config.with_watchdog(0.2);
        if (i == 3) {
          plans.push_back(std::make_unique<sw::FaultPlan>(1000 + w));
          plans.back()->inject(
              {sw::FaultKind::kMsgDrop, /*target=*/0, /*op_index=*/3});
          req.config.faults = plans.back().get();
        }
      } else {
        req.step_stall_s = kStall;
      }
      const auto out = server.submit("ops", name, req);
      ASSERT_EQ(out.admission, Admission::kAdmitted) << name;
      tickets.push_back(out.ticket);
      digest_key[name] = par ? "par" : "seq" + std::to_string(i);
    }
    wait_for_running(tickets.front());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.drain();
    EXPECT_EQ(server.state(), ServerState::kStopped);
    expect_flat_keys();
    server.restart();
    EXPECT_EQ(server.state(), ServerState::kAdmitting);
    server.wait_idle();
  }

  // 6 submissions against max_active=4 / soft_active=2.
  TenantQuota quota;
  quota.max_active = 4;
  quota.soft_active = 2;
  quota.tier = 2;
  quota.throttle_priority = -1;
  server.add_tenant("batch", quota);
  std::map<Admission, int> verdicts;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "burst" + std::to_string(i);
    RunRequest req = make_request(kSteps, seq_config(0));
    req.step_stall_s = kStall;  // hold the slots through the burst
    const auto out = server.submit("batch", name, req);
    ++verdicts[out.admission];
    if (out.ticket != nullptr) digest_key[name] = "seq0";
  }
  EXPECT_EQ(verdicts[Admission::kAdmitted], 2);
  EXPECT_EQ(verdicts[Admission::kThrottled], 2);
  EXPECT_EQ(verdicts[Admission::kRejected], 2);
  server.wait_idle();
  expect_flat_keys();

  int resumed_members = 0;
  for (const auto& m : server.members()) {
    EXPECT_EQ(m.phase, MemberPhase::kDone) << m.name;
    EXPECT_EQ(m.last_state, RunState::kCompleted) << m.name << ": " << m.error;
    EXPECT_EQ(m.state_crc, want.at(digest_key.at(m.name))) << m.name;
    if (m.resumed_from > 0) ++resumed_members;
  }
  EXPECT_EQ(server.members().size(), digest_key.size());
  EXPECT_GE(server.retries(), plans.size());
  EXPECT_EQ(server.restarts(), 2u);
  const svc::EngineStats st = server.engine_stats();
  EXPECT_EQ(st.submitted, st.completed + st.faulted + st.cancelled +
                              st.deadline);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_GE(st.resumed, static_cast<std::uint64_t>(resumed_members));

  server.drain();
  fs::remove_all(dir);
}

}  // namespace
