// Fleet-mode tests: cluster views over a shared pool, the spare arbiter's
// claim/preempt/replenish semantics (including the no-double-assignment
// invariant), fleet determinism, and cross-job switch-storm blast radius.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/fleet/fleet.h"
#include "src/fleet/fleet_presets.h"

namespace byterobust {
namespace {

// ---------------------------------------------------------------------------
// Cluster views over a shared core.
// ---------------------------------------------------------------------------

TEST(ClusterViewTest, ViewsCarveDisjointContiguousSlots) {
  Cluster pool(kFleetPool, 12, 2);
  Cluster a(pool, 4);
  Cluster b(pool, 6);
  EXPECT_EQ(a.num_training_slots(), 4);
  EXPECT_EQ(b.num_training_slots(), 6);
  std::set<MachineId> seen;
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(seen.insert(a.MachineAtSlot(s)).second);
  }
  for (int s = 0; s < 6; ++s) {
    EXPECT_TRUE(seen.insert(b.MachineAtSlot(s)).second);
  }
  // Job A got the lowest ids, job B the next band (rack-contiguous layout).
  EXPECT_EQ(a.MachineAtSlot(0), 0);
  EXPECT_EQ(a.MachineAtSlot(3), 3);
  EXPECT_EQ(b.MachineAtSlot(0), 4);
  // Two machines remain idle in the shared pool.
  EXPECT_EQ(pool.IdleMachines().size(), 2u);
  // A machine serving job B is not part of job A's slot space.
  EXPECT_EQ(a.SlotOfMachine(b.MachineAtSlot(0)), -1);
  EXPECT_EQ(b.SlotOfMachine(4), 0);
}

TEST(ClusterViewTest, ViewThrowsWhenPoolCannotSupplyDemand) {
  Cluster pool(kFleetPool, 4, 2);
  Cluster a(pool, 3);
  EXPECT_THROW(Cluster(pool, 2), std::invalid_argument);
  // A failed carve leaves no trace: no machine claimed, and later health
  // mutations dispatch only to live views (regression: the half-built view
  // used to stay registered with the shared core behind the exception).
  EXPECT_EQ(pool.IdleMachines().size(), 1u);
  int fired = 0;
  a.RequestMutationWake([&fired] { ++fired; });
  pool.machine(0).host().nic_up = false;
  EXPECT_EQ(fired, 1);
}

TEST(ClusterViewTest, SuspectIndexIsPerViewButEpochIsShared) {
  Cluster pool(kFleetPool, 8, 2);
  Cluster a(pool, 3);
  Cluster b(pool, 3);
  const std::uint64_t epoch = pool.health_epoch();
  // Dirty one of B's machines: shared epoch bumps, but only B lists a suspect.
  pool.machine(b.MachineAtSlot(1)).gpu(0).clock_ratio = 0.5;
  EXPECT_GT(pool.health_epoch(), epoch);
  EXPECT_EQ(a.health_epoch(), b.health_epoch());
  EXPECT_TRUE(a.SuspectServingMachines().empty());
  ASSERT_EQ(b.SuspectServingMachines().size(), 1u);
  EXPECT_EQ(b.SuspectServingMachines().front(), b.MachineAtSlot(1));
}

TEST(ClusterViewTest, PerViewMutationWakersAllFire) {
  Cluster pool(kFleetPool, 6, 2);
  Cluster a(pool, 2);
  Cluster b(pool, 2);
  int fired_a = 0;
  int fired_b = 0;
  a.RequestMutationWake([&fired_a] { ++fired_a; });
  b.RequestMutationWake([&fired_b] { ++fired_b; });
  pool.machine(a.MachineAtSlot(0)).host().nic_up = false;  // any mutation wakes all views
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  // One-shot: a second mutation without re-registration fires nothing.
  pool.machine(b.MachineAtSlot(0)).host().nic_up = false;
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

TEST(ClusterViewTest, DetachSlotMachineTransfersWithoutBlacklisting) {
  Cluster pool(kFleetPool, 6, 2);
  Cluster a(pool, 3);
  const MachineId fresh = pool.AddMachine();
  const MachineId taken = a.DetachSlotMachine(2, fresh);
  EXPECT_FALSE(pool.IsBlacklisted(taken));
  EXPECT_EQ(a.SlotOfMachine(taken), -1);
  EXPECT_EQ(a.MachineAtSlot(2), fresh);
  EXPECT_EQ(pool.machine(taken).state(), MachineState::kIdle);
  EXPECT_EQ(pool.machine(fresh).state(), MachineState::kActive);
}

// ---------------------------------------------------------------------------
// Spare arbiter.
// ---------------------------------------------------------------------------

struct ArbiterFixture {
  // Two tiny jobs (high priority job 0, low priority job 1) on a shared pool
  // with `spares` extra machines.
  explicit ArbiterFixture(int spares, bool preemption = true) {
    SpareArbiterConfig cfg;
    cfg.allow_preemption = preemption;
    pool = std::make_unique<Cluster>(kFleetPool, 4 + 4 + spares, 2);
    arbiter = std::make_unique<SpareArbiter>(cfg, &sim, pool.get());
    high = arbiter->RegisterJob("high", /*priority=*/2);
    low = arbiter->RegisterJob("low", /*priority=*/0);
    JobConfig jc;
    jc.parallelism.tp = 2;
    jc.parallelism.pp = 2;
    jc.parallelism.dp = 2;
    jc.parallelism.gpus_per_machine = 2;  // 4 machines
    view_high = std::make_unique<Cluster>(*pool, 4);
    view_low = std::make_unique<Cluster>(*pool, 4);
    job_high = std::make_unique<TrainJob>(jc, &sim, view_high.get(), 1);
    job_low = std::make_unique<TrainJob>(jc, &sim, view_low.get(), 2);
    arbiter->AttachJobRuntime(0, view_high.get(), job_high.get());
    arbiter->AttachJobRuntime(1, view_low.get(), job_low.get());
  }

  Simulator sim;
  std::unique_ptr<Cluster> pool;
  std::unique_ptr<SpareArbiter> arbiter;
  SparePool* high = nullptr;
  SparePool* low = nullptr;
  std::unique_ptr<Cluster> view_high;
  std::unique_ptr<Cluster> view_low;
  std::unique_ptr<TrainJob> job_high;
  std::unique_ptr<TrainJob> job_low;
};

TEST(SpareArbiterTest, ReplenishProvisionsTowardFleetTarget) {
  ArbiterFixture f(/*spares=*/4);
  f.arbiter->Replenish();
  EXPECT_GE(f.arbiter->provisioning_count(), 1);
  f.sim.RunUntil(Hours(1));
  EXPECT_EQ(f.arbiter->ready_count(), f.arbiter->FleetTargetSize());
  // Claims drain the ready pool in provision order.
  const std::vector<MachineId> got = f.high->Claim(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(f.arbiter->job_stats(0).machines_granted, 1);
}

TEST(SpareArbiterTest, PreemptionNeverDoubleAssignsAMachine) {
  ArbiterFixture f(/*spares=*/0);  // empty pool: claims must preempt
  f.job_low->Start();
  f.job_high->Start();
  const std::vector<MachineId> got = f.high->Claim(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(f.arbiter->job_stats(0).preemptions_gained, 2);
  EXPECT_EQ(f.arbiter->job_stats(1).preemptions_lost, 2);
  // The machines came from the low job and are no longer in any slot table.
  std::set<MachineId> all_serving;
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(all_serving.insert(f.view_high->MachineAtSlot(s)).second);
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(all_serving.insert(f.view_low->MachineAtSlot(s)).second);
  }
  for (MachineId m : got) {
    EXPECT_EQ(all_serving.count(m), 0u)
        << "claimed machine " << m << " still serves a job";
    EXPECT_FALSE(f.pool->IsBlacklisted(m));
  }
  // Installing the claims keeps every slot assignment unique fleet-wide.
  f.view_high->ReplaceSlot(0, got[0]);
  f.view_high->ReplaceSlot(1, got[1]);
  std::set<MachineId> after;
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(after.insert(f.view_high->MachineAtSlot(s)).second);
    EXPECT_TRUE(after.insert(f.view_low->MachineAtSlot(s)).second);
  }
  // The victim job was crashed by the preemption.
  EXPECT_EQ(f.job_low->state(), JobRunState::kCrashed);
  EXPECT_EQ(f.job_high->state(), JobRunState::kRunning);
}

TEST(SpareArbiterTest, PreemptionFallsBackPastVictimsWithNoNominalMachine) {
  Simulator sim;
  Cluster pool(kFleetPool, 8, 2);
  SpareArbiter arbiter(SpareArbiterConfig{}, &sim, &pool);
  SparePool* high = arbiter.RegisterJob("high", /*priority=*/2);
  arbiter.RegisterJob("mid", /*priority=*/1);
  arbiter.RegisterJob("low", /*priority=*/0);
  JobConfig jc;
  jc.parallelism.tp = 2;
  jc.parallelism.pp = 2;
  jc.parallelism.dp = 1;
  jc.parallelism.gpus_per_machine = 2;  // 2 machines per job
  Cluster view_high(pool, 2);
  Cluster view_mid(pool, 2);
  Cluster view_low(pool, 2);
  TrainJob job_high(jc, &sim, &view_high, 1);
  TrainJob job_mid(jc, &sim, &view_mid, 2);
  TrainJob job_low(jc, &sim, &view_low, 3);
  arbiter.AttachJobRuntime(0, &view_high, &job_high);
  arbiter.AttachJobRuntime(1, &view_mid, &job_mid);
  arbiter.AttachJobRuntime(2, &view_low, &job_low);
  job_mid.Start();
  job_low.Start();
  // The preferred (lowest-priority) victim has no nominal machine to give;
  // the claim must fall back to the next-lowest donor instead of queueing.
  for (int s = 0; s < 2; ++s) {
    pool.machine(view_low.MachineAtSlot(s)).gpu(0).clock_ratio = 0.5;
  }
  const std::vector<MachineId> got = high->Claim(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(arbiter.job_stats(2).preemptions_lost, 0);
  EXPECT_EQ(arbiter.job_stats(1).preemptions_lost, 1);
  EXPECT_EQ(job_mid.state(), JobRunState::kCrashed);
  EXPECT_EQ(job_low.state(), JobRunState::kRunning);
}

TEST(SpareArbiterTest, LowPriorityCannotPreemptAndQueuesInstead) {
  ArbiterFixture f(/*spares=*/0);
  f.job_low->Start();
  f.job_high->Start();
  const std::vector<MachineId> got = f.low->Claim(1);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(f.arbiter->job_stats(1).queued_claims, 1);
  EXPECT_EQ(f.arbiter->job_stats(1).shortfall_machines, 1);
  EXPECT_EQ(f.arbiter->preemptions_total(), 0);
  EXPECT_EQ(f.job_high->state(), JobRunState::kRunning);
}

TEST(SpareArbiterTest, PreemptionDisabledFallsBackToQueuedClaim) {
  ArbiterFixture f(/*spares=*/0, /*preemption=*/false);
  f.job_low->Start();
  f.job_high->Start();
  const std::vector<MachineId> got = f.high->Claim(1);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(f.arbiter->job_stats(0).queued_claims, 1);
  EXPECT_EQ(f.job_low->state(), JobRunState::kRunning);
}

TEST(SpareArbiterTest, OccupancyTimelineRecordsPoolMutations) {
  ArbiterFixture f(/*spares=*/2);
  f.arbiter->Replenish();
  f.sim.RunUntil(Hours(1));
  f.high->Claim(1);
  ASSERT_GE(f.arbiter->occupancy().size(), 2u);
  // Samples are time-ordered and end with the post-claim state.
  SimTime prev = -1;
  for (const SpareOccupancySample& s : f.arbiter->occupancy()) {
    EXPECT_GE(s.time, prev);
    prev = s.time;
  }
  EXPECT_EQ(f.arbiter->occupancy().back().ready, f.arbiter->ready_count());
}

// ---------------------------------------------------------------------------
// Fleet end-to-end.
// ---------------------------------------------------------------------------

struct FleetDigest {
  std::vector<std::int64_t> steps;
  std::vector<int> runs;
  std::vector<int> incidents;
  std::vector<int> evictions;
  int preemptions = 0;
  int queued = 0;
  int storms = 0;
  int cross_job = 0;
  double effective_gpu_ratio = 0.0;

  bool operator==(const FleetDigest&) const = default;
};

FleetDigest RunFleet(const FleetConfig& cfg) {
  Fleet fleet(cfg);
  fleet.Run();
  FleetDigest d;
  for (int i = 0; i < fleet.num_jobs(); ++i) {
    d.steps.push_back(fleet.system(i).job().max_step_reached());
    d.runs.push_back(fleet.system(i).job().run_count());
    d.incidents.push_back(fleet.scenario(i).stats().incidents_injected);
    d.evictions.push_back(fleet.system(i).controller().evictions_total());
  }
  d.preemptions = fleet.arbiter().preemptions_total();
  d.queued = fleet.arbiter().queued_claims_total();
  d.storms = fleet.storms_injected();
  d.cross_job = fleet.cross_job_storms();
  d.effective_gpu_ratio = fleet.EffectiveGpuTimeRatio();
  return d;
}

TEST(FleetTest, MixedFleetRunsAllJobsAndStaysDeterministic) {
  const FleetConfig cfg = FleetMixedConfig(/*days=*/0.3, /*seed=*/42);
  const FleetDigest a = RunFleet(cfg);
  const FleetDigest b = RunFleet(cfg);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.steps.size(), 3u);
  for (std::int64_t steps : a.steps) {
    EXPECT_GT(steps, 0);
  }
  EXPECT_GT(a.effective_gpu_ratio, 0.3);
  EXPECT_LE(a.effective_gpu_ratio, 1.0);
}

TEST(FleetTest, ContentionFleetShowsSparePoolContention) {
  const FleetDigest d = RunFleet(FleetContentionConfig(/*days=*/0.5, /*seed=*/42));
  EXPECT_GE(d.preemptions + d.queued, 1)
      << "fleet-contention must exhibit at least one preemption or queued claim";
}

TEST(FleetTest, SwitchStormSpansJobs) {
  FleetConfig cfg = FleetSwitchStormConfig(/*days=*/1.0, /*seed=*/7);
  const FleetDigest d = RunFleet(cfg);
  EXPECT_GE(d.storms, 1);
  EXPECT_GE(d.cross_job, 1) << "expected at least one storm hitting both jobs";
}

// Regression: a machine added to the shared pool for one job's reschedule
// must stay reserved until that job installs it. Left idle in between, another
// job's fleet-wide Replenish provisioned it as a standby, and a later claim
// handed it out a second time; ReplaceSlot then threw "replacement machine is
// blacklisted" (this seed) or "already in service".
TEST(FleetTest, SwitchStormNeverHandsOutAMachineTwice) {
  Fleet fleet(FleetSwitchStormConfig(/*days=*/1.0, /*seed=*/55));
  ASSERT_NO_THROW(fleet.Run());
  std::set<MachineId> serving;
  for (int i = 0; i < fleet.num_jobs(); ++i) {
    for (MachineId m : fleet.system(i).cluster().serving_slots()) {
      EXPECT_TRUE(serving.insert(m).second) << "machine " << m << " serves two slots";
      EXPECT_FALSE(fleet.pool().IsBlacklisted(m)) << "machine " << m;
    }
  }
}

TEST(FleetTest, StartTimesStaggerJobLaunches) {
  FleetConfig cfg = FleetMixedConfig(/*days=*/0.3, /*seed=*/11);
  Fleet fleet(cfg);
  fleet.Run();
  // All three jobs eventually launched (start times 0h / 2h / 6h < 7.2h).
  for (int i = 0; i < fleet.num_jobs(); ++i) {
    EXPECT_GE(fleet.system(i).job().run_count(), 1) << "job " << i;
  }
  // The later job had strictly less wall-clock to step through.
  EXPECT_GT(fleet.system(0).job().max_step_reached(),
            fleet.system(2).job().max_step_reached());
}

// ---------------------------------------------------------------------------
// Fault-domain graph integration.
// ---------------------------------------------------------------------------

TEST(FleetTest, StormBandsAreContiguousTorRanges) {
  // Switch storms strike ToR domains of the pool's graph: bands of
  // machines_per_tor contiguous machine ids across the whole pool, with a
  // ragged last band.
  FleetConfig cfg = FleetSwitchStormConfig(/*days=*/1.0, /*seed=*/7);
  Fleet fleet(cfg);
  const FaultDomains* domains = fleet.pool().fault_domains();
  ASSERT_NE(domains, nullptr);

  const int total = static_cast<int>(fleet.pool().total_machines());
  const int per = cfg.fault_domains.machines_per_tor;
  const int bands = (total + per - 1) / per;
  ASSERT_EQ(domains->CountAtLevel(DomainLevel::kTor), bands);
  for (int s = 0; s < bands; ++s) {
    const DomainId tor = domains->DomainIdAt(DomainLevel::kTor, s);
    EXPECT_EQ(domains->machine_begin(tor), s * per) << "band " << s;
    EXPECT_EQ(domains->machine_end(tor), std::min<MachineId>((s + 1) * per, total))
        << "band " << s;
  }
}

}  // namespace
}  // namespace byterobust
