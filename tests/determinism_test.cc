// Determinism suite: the simulator rewrite (bucket queue, slab, tombstone
// cancellation) must not change observable behavior for a fixed seed. Two
// runs of the same campaign must agree on every metric, and cancel-heavy
// event patterns must dispatch in exactly (time, schedule order). The
// reference-path oracle also lives here: every named scenario must render
// the same run bytes on each per-step / periodic / unbounded reference path
// as on the optimized default.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/campaign/json_writer.h"
#include "src/campaign/scenarios.h"
#include "src/core/scenario.h"
#include "src/sim/simulator.h"

namespace byterobust {
namespace {

ScenarioConfig SmallCampaign(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.system.job.name = "determinism-7B";
  cfg.system.job.model_params_b = 7.0;
  cfg.system.job.parallelism.tp = 2;
  cfg.system.job.parallelism.pp = 4;
  cfg.system.job.parallelism.dp = 4;
  cfg.system.job.parallelism.gpus_per_machine = 2;
  cfg.system.job.base_step_time = Seconds(10);
  cfg.system.seed = seed;
  cfg.system.spare_machines = 4;
  cfg.duration = Days(0.5);
  cfg.injector.reference_mtbf = Hours(1.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 2;
  return cfg;
}

struct CampaignFingerprint {
  int incidents = 0;
  int refails = 0;
  int updates = 0;
  std::int64_t steps = 0;
  int runs = 0;
  int evictions = 0;
  double ettr = 0.0;
  SimDuration productive = 0;
  std::uint64_t dispatched = 0;
  std::vector<SimDuration> resolution_times;

  bool operator==(const CampaignFingerprint&) const = default;
};

CampaignFingerprint RunCampaign(std::uint64_t seed) {
  Scenario scenario(SmallCampaign(seed));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  CampaignFingerprint fp;
  fp.incidents = scenario.stats().incidents_injected;
  fp.refails = scenario.stats().refails;
  fp.updates = scenario.stats().updates_submitted;
  fp.steps = sys.job().max_step_reached();
  fp.runs = sys.job().run_count();
  fp.evictions = sys.controller().evictions_total();
  fp.ettr = sys.ettr().CumulativeEttr(sys.sim().Now());
  fp.productive = sys.ettr().productive_time();
  fp.dispatched = sys.sim().events_dispatched();
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    fp.resolution_times.push_back(res.TotalUnproductive());
  }
  return fp;
}

TEST(DeterminismTest, SameSeedCampaignsAreIdentical) {
  const CampaignFingerprint a = RunCampaign(2024);
  const CampaignFingerprint b = RunCampaign(2024);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.incidents, 0) << "campaign too quiet to be a meaningful check";
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint actually captures campaign behavior.
  const CampaignFingerprint a = RunCampaign(2024);
  const CampaignFingerprint b = RunCampaign(2025);
  EXPECT_FALSE(a == b);
}

// A cancel-heavy interleaving replayed twice must yield the same dispatch
// sequence, and that sequence must honor (time, schedule order).
TEST(DeterminismTest, CancelHeavyInterleavingReplaysExactly) {
  const auto run = [] {
    Simulator sim;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const SimTime t = Seconds((i * 37) % 50);
      ids.push_back(sim.ScheduleAt(t, [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 200; i += 3) {
      sim.Cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.Run();
    return order;
  };
  const std::vector<int> first = run();
  const std::vector<int> second = run();
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  // Reconstruct the expected order from the schedule: sort by (time, index)
  // over the surviving events.
  std::vector<int> expected;
  for (SimTime t = 0; t < 50; ++t) {
    for (int i = 0; i < 200; ++i) {
      if ((i * 37) % 50 == t && i % 3 != 0) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(first, expected);
}

// ---------------------------------------------------------------------------
// Reference-path oracle. Batched stepping, quiescent monitoring and windowed
// ETTR/MFU metrics are optimizations, not semantics: flipping any one of them
// back to its reference implementation must leave the rendered run (the
// bytes of one campaign "runs" element) unchanged.
// ---------------------------------------------------------------------------
struct ReferenceFlip {
  const char* name;
  void (*apply)(ScenarioConfig*);
};

const std::vector<ReferenceFlip>& ReferenceFlips() {
  static const std::vector<ReferenceFlip> flips = {
      {"per-step stepping", [](ScenarioConfig* c) { c->system.job.batched_stepping = false; }},
      {"periodic monitor", [](ScenarioConfig* c) { c->system.monitor.quiescent = false; }},
      {"unbounded metrics", [](ScenarioConfig* c) { c->system.metrics_retention = 0; }},
  };
  return flips;
}

std::string RenderRun(const ScenarioSpec& spec, double days, const ScenarioConfig& cfg) {
  JsonWriter w;
  WriteRun(&w, RunScenarioConfig(spec, days, cfg));
  return w.Take();
}

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : Specs()) {
    names.emplace_back(spec.name);
  }
  return names;
}

void ExpectEveryFlipRendersTheSameRun(const ScenarioSpec& spec, std::uint64_t seed, double days) {
  const ScenarioConfig base = BuildScenarioConfig(spec, days, seed);
  ASSERT_TRUE(base.system.job.batched_stepping);
  ASSERT_TRUE(base.system.monitor.quiescent);
  ASSERT_GT(base.system.metrics_retention, 0);
  const std::string expected = RenderRun(spec, days, base);
  for (const ReferenceFlip& flip : ReferenceFlips()) {
    ScenarioConfig cfg = base;
    flip.apply(&cfg);
    EXPECT_EQ(expected, RenderRun(spec, days, cfg))
        << spec.name << " seed " << seed << " days " << days << ": " << flip.name;
  }
}

class ReferencePathOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReferencePathOracleTest, EveryReferenceFlipRendersTheSameRun) {
  const ScenarioSpec* spec = FindSpec(GetParam());
  ASSERT_NE(spec, nullptr);
  // Both lengths outlast the 2 h metric retention window, so the windowed
  // and unbounded trackers really diverge in what they keep.
  for (const std::uint64_t seed : {42ULL, 1000ULL}) {
    for (const double days : {0.5, 2.0}) {
      ExpectEveryFlipRendersTheSameRun(*spec, seed, days);
    }
  }
  // One full-length month: ~144k steps through every checkpoint cadence,
  // MFU decline, rollback and hot update of a production-scale seed.
  if (std::string(spec->name) == "dense-month") {
    ExpectEveryFlipRendersTheSameRun(*spec, 42, 30.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ReferencePathOracleTest,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace byterobust
