// Tests for the hierarchical fault-domain topology (src/topology), the
// correlated domain injector (src/faults/domain_injector.h), and the graceful
// degradation ladder end to end: transient domain faults heal inside the
// controller's network debounce without eviction, persistent ones evict
// exactly the serving sub-tree, and fail-slow links backpressure step time
// through the perf model's congestion term.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/campaign/json_writer.h"
#include "src/campaign/scenarios.h"
#include "src/core/byterobust_system.h"
#include "src/core/scenario.h"
#include "src/faults/domain_injector.h"
#include "src/metrics/domain_blast.h"
#include "src/topology/fault_domains.h"

namespace byterobust {
namespace {

FaultDomainConfig SmallTree() {
  FaultDomainConfig cfg;
  cfg.machines_per_tor = 4;
  cfg.tors_per_spine = 2;
  cfg.spines_per_pod = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Tree construction and id layout.
// ---------------------------------------------------------------------------

TEST(FaultDomainsTest, TreeShapeMatchesConfig) {
  // 20 machines / 4 per ToR / 2 ToRs per spine / 2 spines per pod:
  // 5 ToRs (last one ragged), 3 spines, 2 pods.
  FaultDomains domains(SmallTree(), 20);
  EXPECT_EQ(domains.CountAtLevel(DomainLevel::kNic), 20);
  EXPECT_EQ(domains.CountAtLevel(DomainLevel::kTor), 5);
  EXPECT_EQ(domains.CountAtLevel(DomainLevel::kSpine), 3);
  EXPECT_EQ(domains.CountAtLevel(DomainLevel::kPod), 2);
  EXPECT_EQ(domains.num_domains(), 20 + 5 + 3 + 2);

  // ToR machine bands are contiguous with a ragged tail.
  EXPECT_EQ(domains.DomainAt(DomainLevel::kTor, 0).machine_begin, 0);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kTor, 0).machine_end, 4);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kTor, 4).machine_begin, 16);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kTor, 4).machine_end, 20);
  // Spine 1 aggregates ToRs 2..3 -> machines [8, 16); spine 2 is ragged.
  EXPECT_EQ(domains.DomainAt(DomainLevel::kSpine, 1).machine_begin, 8);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kSpine, 1).machine_end, 16);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kSpine, 2).machine_end, 20);
  // Pod 0 feeds spines 0..1 -> machines [0, 16).
  EXPECT_EQ(domains.DomainAt(DomainLevel::kPod, 0).machine_begin, 0);
  EXPECT_EQ(domains.DomainAt(DomainLevel::kPod, 0).machine_end, 16);
}

TEST(FaultDomainsTest, ParentChainWalksNicToPod) {
  FaultDomains domains(SmallTree(), 20);
  // Machine 9: NIC 9 -> ToR 2 -> spine 1 -> pod 0.
  const Domain& nic = domains.DomainAt(DomainLevel::kNic, 9);
  const Domain& tor = domains.domain(nic.parent);
  EXPECT_EQ(tor.level, DomainLevel::kTor);
  EXPECT_EQ(tor.index, 2);
  const Domain& spine = domains.domain(tor.parent);
  EXPECT_EQ(spine.level, DomainLevel::kSpine);
  EXPECT_EQ(spine.index, 1);
  const Domain& pod = domains.domain(spine.parent);
  EXPECT_EQ(pod.level, DomainLevel::kPod);
  EXPECT_EQ(pod.index, 0);
  EXPECT_EQ(pod.parent, -1);
}

TEST(FaultDomainsTest, TorBandsAreContiguousMachineRanges) {
  // ToR s covers machines [6s, 6s + 6) of 35, the last band ragged; fleet
  // switch storms strike these bands.
  FaultDomainConfig cfg;
  cfg.machines_per_tor = 6;
  FaultDomains domains(cfg, 35);
  const int num_tors = (35 + 6 - 1) / 6;
  ASSERT_EQ(domains.CountAtLevel(DomainLevel::kTor), num_tors);
  for (int s = 0; s < num_tors; ++s) {
    const Domain& tor = domains.DomainAt(DomainLevel::kTor, s);
    EXPECT_EQ(tor.machine_begin, s * 6);
    EXPECT_EQ(tor.machine_end, std::min((s + 1) * 6, 35));
  }
}

TEST(FaultDomainsTest, PathOfMachineClampsLateMachines) {
  FaultDomains domains(SmallTree(), 20);
  const std::vector<DomainId> path = domains.PathOfMachine(9);
  ASSERT_EQ(path.size(), static_cast<std::size_t>(kNumDomainLevels));
  for (DomainId id : path) {
    const Domain& d = domains.domain(id);
    EXPECT_LE(d.machine_begin, 9);
    EXPECT_GT(d.machine_end, 9);
  }
  // A machine provisioned after construction clamps into the last domain at
  // every level instead of throwing.
  const std::vector<DomainId> late = domains.PathOfMachine(27);
  ASSERT_EQ(late.size(), static_cast<std::size_t>(kNumDomainLevels));
  EXPECT_EQ(domains.domain(late[1]).index, 4);  // last ToR
  EXPECT_EQ(domains.domain(late[3]).index, 1);  // last pod
}

// ---------------------------------------------------------------------------
// Congestion crossing semantics.
// ---------------------------------------------------------------------------

TEST(FaultDomainsTest, CongestionAppliesOnlyToCrossingSets) {
  FaultDomains domains(SmallTree(), 20);
  const DomainId tor0 = domains.DomainIdAt(DomainLevel::kTor, 0);  // [0, 4)
  domains.SetState(tor0, DomainState::kDegraded, 0.5, /*now=*/0);

  // Fully inside the degraded band: collectives never traverse the uplink.
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({0, 1, 2, 3}), 1.0);
  // Fully outside: unaffected.
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({4, 5, 6}), 1.0);
  // Crossing: members on both sides pay the degradation factor.
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({0, 1, 4, 5}), 0.5);
  // A single machine has no collective to slow.
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({0}), 1.0);

  // Two impaired links: the crossing set pays the worst factor.
  const DomainId tor1 = domains.DomainIdAt(DomainLevel::kTor, 1);  // [4, 8)
  domains.SetState(tor1, DomainState::kDegraded, 0.8, /*now=*/0);
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({0, 4, 8}), 0.5);

  // Degraded state without a slowdown factor (spine flap) adds no congestion.
  domains.Heal(tor0, /*now=*/0);
  domains.Heal(tor1, /*now=*/0);
  const DomainId spine0 = domains.DomainIdAt(DomainLevel::kSpine, 0);
  domains.SetState(spine0, DomainState::kDegraded, 1.0, /*now=*/0);
  EXPECT_DOUBLE_EQ(domains.CongestionFactorFor({0, 9}), 1.0);
}

TEST(FaultDomainsTest, ImpairedListTracksStateChanges) {
  FaultDomains domains(SmallTree(), 20);
  EXPECT_FALSE(domains.AnyImpaired());
  const DomainId tor2 = domains.DomainIdAt(DomainLevel::kTor, 2);
  const DomainId pod1 = domains.DomainIdAt(DomainLevel::kPod, 1);
  domains.SetState(pod1, DomainState::kDown, 1.0, Seconds(5));
  domains.SetState(tor2, DomainState::kDegraded, 0.7, Seconds(6));
  EXPECT_EQ(domains.impaired(), (std::vector<DomainId>{tor2, pod1}));  // ascending
  EXPECT_EQ(domains.domain(pod1).state_since, Seconds(5));
  domains.Heal(pod1, Seconds(9));
  EXPECT_EQ(domains.impaired(), (std::vector<DomainId>{tor2}));
  EXPECT_DOUBLE_EQ(domains.domain(pod1).degradation_factor, 1.0);
  domains.Heal(tor2, Seconds(10));
  EXPECT_FALSE(domains.AnyImpaired());
}

// ---------------------------------------------------------------------------
// Cluster attachment: paths, epoch plumbing, congestion caching.
// ---------------------------------------------------------------------------

TEST(FaultDomainsClusterTest, AttachAssignsPathsAndIsEpochNeutral) {
  Cluster cluster(8, 2);
  const std::uint64_t epoch_before = cluster.health_epoch();
  cluster.AttachFaultDomains(SmallTree());
  EXPECT_EQ(cluster.health_epoch(), epoch_before);  // attach is not a fault
  ASSERT_NE(cluster.fault_domains(), nullptr);
  for (MachineId m = 0; m < 8; ++m) {
    const std::vector<DomainId>& path = cluster.machine(m).domain_path();
    ASSERT_EQ(path.size(), static_cast<std::size_t>(kNumDomainLevels));
    EXPECT_EQ(cluster.fault_domains()->domain(path[0]).machine_begin, m);
  }
}

TEST(FaultDomainsClusterTest, DomainStateBumpsSharedEpochAndCongestion) {
  Cluster cluster(8, 2);
  cluster.AttachFaultDomains(SmallTree());
  EXPECT_DOUBLE_EQ(cluster.CongestionFactor(), 1.0);
  const std::uint64_t epoch_before = cluster.health_epoch();
  FaultDomains* domains = cluster.fault_domains();
  // ToR 0 covers [0, 4); all 8 serving machines straddle it.
  domains->SetState(domains->DomainIdAt(DomainLevel::kTor, 0), DomainState::kDegraded, 0.55,
                    /*now=*/0);
  EXPECT_GT(cluster.health_epoch(), epoch_before);
  EXPECT_DOUBLE_EQ(cluster.CongestionFactor(), 0.55);
  domains->Heal(domains->DomainIdAt(DomainLevel::kTor, 0), /*now=*/0);
  EXPECT_DOUBLE_EQ(cluster.CongestionFactor(), 1.0);
}

// ---------------------------------------------------------------------------
// DomainInjector: per-kind machine health effects.
// ---------------------------------------------------------------------------

TEST(DomainInjectorTest, SpineFlapDegradesEveryMachineBeneath) {
  Cluster cluster(8, 2);
  cluster.AttachFaultDomains(SmallTree());
  const DomainId spine0 = cluster.fault_domains()->DomainIdAt(DomainLevel::kSpine, 0);
  const DomainFaultEffect effect =
      DomainInjector::ApplyToDomain(DomainFaultKind::kSpineFlap, spine0, 1.0, &cluster,
                                    /*now=*/0);
  EXPECT_EQ(effect.affected.size(), 8u);  // spine 0 covers [0, 8)
  for (MachineId m = 0; m < 8; ++m) {
    EXPECT_FALSE(cluster.machine(m).host().switch_reachable);
    EXPECT_GT(cluster.machine(m).host().packet_loss_rate, 0.1);
    EXPECT_EQ(cluster.machine(m).state(), MachineState::kDegraded);  // gray: still serving
  }
  EXPECT_EQ(cluster.fault_domains()->domain(spine0).state, DomainState::kDegraded);

  DomainInjector::HealDomain(DomainFaultKind::kSpineFlap, spine0, &cluster, /*now=*/0);
  for (MachineId m = 0; m < 8; ++m) {
    EXPECT_TRUE(cluster.machine(m).host().switch_reachable);
    EXPECT_EQ(cluster.machine(m).state(), MachineState::kActive);
  }
  EXPECT_FALSE(cluster.fault_domains()->AnyImpaired());
}

TEST(DomainInjectorTest, PowerLossKillsThePodButSkipsBlacklisted) {
  Cluster cluster(8, 2);
  cluster.AttachFaultDomains(SmallTree());
  cluster.Blacklist(2);
  const DomainId pod0 = cluster.fault_domains()->DomainIdAt(DomainLevel::kPod, 0);
  const DomainFaultEffect effect =
      DomainInjector::ApplyToDomain(DomainFaultKind::kPowerLoss, pod0, 1.0, &cluster,
                                    /*now=*/0);
  EXPECT_EQ(std::count(effect.affected.begin(), effect.affected.end(), 2), 0);
  for (MachineId m = 0; m < 8; ++m) {
    if (m == 2) {
      continue;  // already evicted: untouched
    }
    EXPECT_FALSE(cluster.machine(m).host().os_kernel_ok) << m;
    EXPECT_EQ(cluster.machine(m).state(), MachineState::kFaulty) << m;
  }
  EXPECT_EQ(cluster.fault_domains()->domain(pod0).state, DomainState::kDown);
}

TEST(DomainInjectorTest, LinkFailSlowFlipsNoMachineHealth) {
  Cluster cluster(8, 2);
  cluster.AttachFaultDomains(SmallTree());
  const DomainId tor0 = cluster.fault_domains()->DomainIdAt(DomainLevel::kTor, 0);
  const DomainFaultEffect effect =
      DomainInjector::ApplyToDomain(DomainFaultKind::kLinkFailSlow, tor0, 0.5, &cluster,
                                    /*now=*/0);
  EXPECT_TRUE(effect.affected.empty());  // silent: the hallmark gray failure
  for (MachineId m = 0; m < 8; ++m) {
    EXPECT_TRUE(cluster.machine(m).host().switch_reachable);
    EXPECT_EQ(cluster.machine(m).state(), MachineState::kActive);
  }
  // ...but crossing collectives pay for it.
  EXPECT_DOUBLE_EQ(cluster.CongestionFactor(), 0.5);
}

TEST(DomainInjectorTest, ServingUnderReturnsSlotMachinesInRange) {
  Cluster pool(kFleetPool, 12, 2);
  pool.AttachFaultDomains(SmallTree());
  Cluster job(pool, 6);  // serves machines 0..5
  const DomainId tor1 = pool.fault_domains()->DomainIdAt(DomainLevel::kTor, 1);  // [4, 8)
  EXPECT_EQ(DomainInjector::ServingUnder(job, tor1), (std::vector<MachineId>{4, 5}));
  EXPECT_EQ(DomainInjector::ServingUnder(pool, tor1), (std::vector<MachineId>{}));
}

// ---------------------------------------------------------------------------
// End-to-end graceful degradation through the controller.
// ---------------------------------------------------------------------------

SystemConfig SmallSystem(std::uint64_t seed) {
  SystemConfig config;
  config.job.name = "domain-test";
  config.job.parallelism.tp = 2;
  config.job.parallelism.pp = 2;
  config.job.parallelism.dp = 4;
  config.job.parallelism.gpus_per_machine = 2;
  config.job.base_step_time = Seconds(10);
  config.seed = seed;
  config.spare_machines = 4;  // 8 serving + 4 spares
  config.fault_domains = SmallTree();
  return config;
}

Incident SpineIncident(const std::vector<MachineId>& machines, RootCause cause, SimTime now) {
  Incident inc;
  inc.id = 9001;
  inc.symptom = IncidentSymptom::kInfinibandError;
  inc.root_cause = cause;
  inc.faulty_machines = machines;
  inc.inject_time = now;
  return inc;
}

TEST(DomainFaultE2eTest, TransientSpineFlapHealsInsideDebounceWithoutEviction) {
  ByteRobustSystem sys(SmallSystem(11));
  sys.Start();
  sys.sim().RunUntil(Minutes(5));
  ASSERT_NE(sys.cluster().fault_domains(), nullptr);
  const DomainId spine0 = sys.cluster().fault_domains()->DomainIdAt(DomainLevel::kSpine, 0);

  const SimTime inject = sys.sim().Now();
  DomainInjector::ApplyToDomain(DomainFaultKind::kSpineFlap, spine0, 1.0, &sys.cluster(),
                                inject);
  sys.controller().NotifyIncidentInjected(
      SpineIncident(DomainInjector::ServingUnder(sys.cluster(), spine0),
                    RootCause::kTransient, inject));
  // Heal before the 150 s network debounce expires: the post-debounce recheck
  // must see nominal machines and reattempt instead of evicting.
  sys.sim().Schedule(Seconds(90), [&sys, spine0] {
    DomainInjector::HealDomain(DomainFaultKind::kSpineFlap, spine0, &sys.cluster(),
                               sys.sim().Now());
  });
  sys.sim().RunUntil(inject + Minutes(30));

  EXPECT_EQ(sys.controller().evictions_total(), 0);
  EXPECT_EQ(sys.job().state(), JobRunState::kRunning);
  EXPECT_GE(sys.job().run_count(), 2);  // stopped for the debounce, reattempted
}

TEST(DomainFaultE2eTest, PersistentSpineFaultEvictsExactlyTheSubTree) {
  ByteRobustSystem sys(SmallSystem(12));
  sys.Start();
  sys.sim().RunUntil(Minutes(5));
  const FaultDomains* domains = sys.cluster().fault_domains();
  const DomainId spine0 = domains->DomainIdAt(DomainLevel::kSpine, 0);
  const MachineId begin = domains->machine_begin(spine0);
  const MachineId end = domains->machine_end(spine0);
  const std::vector<MachineId> serving = DomainInjector::ServingUnder(sys.cluster(), spine0);
  ASSERT_FALSE(serving.empty());

  const SimTime inject = sys.sim().Now();
  DomainInjector::ApplyToDomain(DomainFaultKind::kSpineFlap, spine0, 1.0, &sys.cluster(),
                                inject);
  sys.controller().NotifyIncidentInjected(
      SpineIncident(serving, RootCause::kInfrastructure, inject));
  // Never healed: every post-debounce recheck still sees the flap, so the
  // controller works through the sub-tree round by round.
  sys.sim().RunUntil(inject + Hours(6));

  std::set<MachineId> blacklisted;
  for (MachineId m = 0; m < static_cast<MachineId>(sys.cluster().total_machines()); ++m) {
    if (sys.cluster().IsBlacklisted(m)) {
      blacklisted.insert(m);
    }
  }
  // Exactly the machines that were serving under the spine — nothing outside
  // the domain, and no survivor within it.
  EXPECT_EQ(blacklisted, std::set<MachineId>(serving.begin(), serving.end()));
  for (MachineId m : blacklisted) {
    EXPECT_GE(m, begin);
    EXPECT_LT(m, end);
  }
  // The job recovered onto replacement machines outside the faulted spine.
  EXPECT_EQ(sys.job().state(), JobRunState::kRunning);
}

TEST(DomainFaultE2eTest, LinkFailSlowBackpressuresStepTime) {
  ByteRobustSystem sys(SmallSystem(13));
  sys.Start();
  sys.sim().RunUntil(Minutes(2));
  const SimDuration nominal = sys.job().CurrentStepTime();
  ASSERT_GT(nominal, 0);

  // ToR 0 covers half the serving set: the job's collectives cross it.
  FaultDomains* domains = sys.cluster().fault_domains();
  const DomainId tor0 = domains->DomainIdAt(DomainLevel::kTor, 0);
  DomainInjector::ApplyToDomain(DomainFaultKind::kLinkFailSlow, tor0, 0.5, &sys.cluster(),
                                sys.sim().Now());
  const SimDuration congested = sys.job().CurrentStepTime();
  // Factor 0.5 doubles the step time (and halves MFU) while the link is bad.
  EXPECT_NEAR(static_cast<double>(congested), static_cast<double>(nominal) / 0.5,
              static_cast<double>(nominal) * 0.01);

  DomainInjector::HealDomain(DomainFaultKind::kLinkFailSlow, tor0, &sys.cluster(),
                             sys.sim().Now());
  EXPECT_EQ(sys.job().CurrentStepTime(), nominal);
}

// ---------------------------------------------------------------------------
// Scenario-level domain-fault stream.
// ---------------------------------------------------------------------------

ScenarioConfig DomainScenario(DomainFaultKind kind, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.system = SmallSystem(seed);
  cfg.duration = Hours(8);
  // Background per-machine mix effectively off: evictions can then only come
  // from the domain stream. Keep MTBF * reference_machines/slots well under
  // INT64_MAX microseconds so exponential draws never overflow the cast.
  cfg.injector.reference_mtbf = Hours(1.0e5);
  cfg.injector.reference_machines = 12;
  cfg.planned_updates = 0;
  cfg.domain_faults.kind = kind;
  cfg.domain_faults.mean_gap = Minutes(40);
  return cfg;
}

struct ScenarioDigest {
  int domain_faults = 0;
  int incidents = 0;
  int evictions = 0;
  std::int64_t steps = 0;
  int blast_events = 0;

  bool operator==(const ScenarioDigest&) const = default;
};

ScenarioDigest RunDomainScenario(const ScenarioConfig& cfg) {
  Scenario scenario(cfg);
  scenario.Run();
  ScenarioDigest d;
  d.domain_faults = scenario.stats().domain_faults_injected;
  d.incidents = scenario.stats().incidents_injected;
  d.evictions = scenario.system().controller().evictions_total();
  d.steps = scenario.system().job().max_step_reached();
  d.blast_events = static_cast<int>(scenario.domain_blast().events().size());
  return d;
}

TEST(DomainScenarioTest, AllTransientFlapsNeverEvict) {
  ScenarioConfig cfg = DomainScenario(DomainFaultKind::kSpineFlap, 21);
  cfg.domain_faults.transient_fraction = 1.0;
  const ScenarioDigest d = RunDomainScenario(cfg);
  EXPECT_GE(d.domain_faults, 3);
  EXPECT_EQ(d.evictions, 0) << "transient domain faults must heal inside the debounce";
  EXPECT_GT(d.steps, 0);
}

TEST(DomainScenarioTest, PersistentFlapsEscalateToEviction) {
  ScenarioConfig cfg = DomainScenario(DomainFaultKind::kSpineFlap, 22);
  cfg.domain_faults.transient_fraction = 0.0;
  cfg.domain_faults.persistent_hold = Hours(1);
  const ScenarioDigest d = RunDomainScenario(cfg);
  EXPECT_GE(d.domain_faults, 1);
  EXPECT_GT(d.evictions, 0) << "persistent domain faults must escalate to eviction";
}

TEST(DomainScenarioTest, StreamIsDeterministic) {
  const ScenarioConfig cfg = DomainScenario(DomainFaultKind::kPowerLoss, 23);
  const ScenarioDigest a = RunDomainScenario(cfg);
  const ScenarioDigest b = RunDomainScenario(cfg);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.blast_events, 1);
}

TEST(DomainScenarioTest, DisabledStreamRecordsNoBlastEvents) {
  // With mean_gap = 0 the graph is attached but the domain stream never
  // fires: the background mix still injects incidents, and no blast event is
  // recorded.
  ScenarioConfig cfg = DomainScenario(DomainFaultKind::kSpineFlap, 24);
  cfg.injector.reference_mtbf = Hours(1);  // real background mix
  cfg.injector.reference_machines = 12;    // scaled to this cluster's size
  cfg.domain_faults.mean_gap = 0;
  const ScenarioDigest d = RunDomainScenario(cfg);
  EXPECT_GT(d.incidents, 0);
  EXPECT_EQ(d.blast_events, 0);
}

TEST(DomainScenarioTest, BlastStatsRecordLevelAndHeals) {
  ScenarioConfig cfg = DomainScenario(DomainFaultKind::kLinkFailSlow, 25);
  cfg.domain_faults.transient_fraction = 1.0;
  Scenario scenario(cfg);
  scenario.Run();
  ASSERT_FALSE(scenario.domain_blast().empty());
  const auto by_level = scenario.domain_blast().SummaryByLevel();
  ASSERT_EQ(by_level.size(), 1u);
  const DomainBlastLevelSummary& tor = by_level.at(static_cast<int>(DomainLevel::kTor));
  EXPECT_EQ(tor.events, scenario.stats().domain_faults_injected);
  EXPECT_EQ(tor.transient_events, tor.events);
  EXPECT_GE(tor.healed_events, tor.events - 1);  // last may straddle the end
  EXPECT_EQ(scenario.system().controller().evictions_total(), 0);  // silent fault
}

TEST(DomainScenarioTest, EverySpineFlapRunCarriesBlastBlock) {
  // Each run of a 2-day spine-flap campaign (the CLI's base seed 42 onward)
  // renders a "fault_domains" block with at least one domain level.
  const ScenarioSpec* spec = FindSpec("spine-flap");
  ASSERT_NE(spec, nullptr);
  for (std::uint64_t seed = 42; seed < 50; ++seed) {
    const RunResult r = RunOne(*spec, /*days=*/2.0, seed);
    EXPECT_FALSE(r.domain_blast.SummaryByLevel().empty()) << "seed " << seed;
    JsonWriter w;
    WriteRun(&w, r);
    EXPECT_NE(w.Take().find("\"fault_domains\": {"), std::string::npos) << "seed " << seed;
  }
}

}  // namespace
}  // namespace byterobust
