// Unit tests for the runtime analyzer: aggregation analysis and fail-slow
// voting (paper Sec. 5, Fig. 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analyzer/aggregation.h"
#include "src/tracer/stack_synth.h"
#include "src/training/job_config.h"

namespace byterobust {
namespace {

Topology Fig7Topology() {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 4;
  cfg.gpus_per_machine = 2;
  return Topology(cfg);
}

TEST(AggregationTest, Fig7HangIsolatesThePipelineGroup) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);

  // Outliers: machines 12, 13 (irecv), 14 (isend), 15 (all-gather).
  EXPECT_EQ(result.outlier_machines, (std::vector<MachineId>{12, 13, 14, 15}));
  ASSERT_TRUE(result.found_group);
  EXPECT_EQ(result.isolated_group.kind, GroupKind::kPipeline);
  EXPECT_EQ(result.machines_to_evict, (std::vector<MachineId>{12, 13, 14, 15}));
  // The dominant group is the 24 healthy reduce-scatter ranks.
  EXPECT_TRUE(result.groups.front().healthy);
  EXPECT_EQ(result.groups.front().rank_count, 24);
  EXPECT_EQ(result.groups.front().machine_runs, (std::vector<IdRun>{{0, 12}}));
}

TEST(AggregationTest, SubprocessOutliersAreDetected) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 6, HangSite::kDataLoader);
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);
  // Rank 6 lives on machine 3; its wedged dataloader makes the machine an
  // outlier even though most of its processes look healthy.
  const MachineId culprit_machine = topo.MachineOfRank(6);
  bool found = false;
  for (MachineId m : result.outlier_machines) {
    if (m == culprit_machine) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(result.machines_to_evict.empty());
}

TEST(AggregationTest, AllHealthyYieldsNothing) {
  const Topology topo = Fig7Topology();
  std::vector<ProcessStack> stacks;
  for (Rank r = 0; r < topo.world_size(); ++r) {
    stacks.push_back({r, topo.MachineOfRank(r), ProcessKind::kTrainer, HealthyGradSyncStack()});
  }
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);
  EXPECT_TRUE(result.outlier_machines.empty());
  EXPECT_TRUE(result.machines_to_evict.empty());
  EXPECT_FALSE(result.found_group);
}

TEST(AggregationTest, EmptyInputIsSafe) {
  const Topology topo = Fig7Topology();
  AggregationAnalyzer analyzer;
  for (const AggregationResult& result :
       {analyzer.Analyze(std::vector<ProcessStack>{}, topo),
        analyzer.Analyze(std::vector<StackRun>{}, topo)}) {
    EXPECT_TRUE(result.groups.empty());
    EXPECT_TRUE(result.machines_to_evict.empty());
  }
}

TEST(AggregationTest, DominantFractionControlsHealthyCutoff) {
  const Topology topo = Fig7Topology();
  // Two groups of similar size: with dominant_fraction 0.5 both count as
  // healthy; with 0.95 the smaller one becomes an outlier.
  std::vector<ProcessStack> stacks;
  for (Rank r = 0; r < topo.world_size(); ++r) {
    const bool minority = r >= 20;  // 20 vs 12 split
    stacks.push_back({r, topo.MachineOfRank(r), ProcessKind::kTrainer,
                      minority ? TensorCollectiveStack() : HealthyGradSyncStack()});
  }
  AggregationAnalyzer loose(AggregationConfig{0.5});
  EXPECT_TRUE(loose.Analyze(stacks, topo).outlier_machines.empty());
  AggregationAnalyzer strict(AggregationConfig{0.95});
  EXPECT_FALSE(strict.Analyze(stacks, topo).outlier_machines.empty());
}

TEST(FailSlowVoterTest, VotingSeesThroughSamplingNoise) {
  const Topology topo = Fig7Topology();
  AggregationAnalyzer analyzer;
  FailSlowVoter voter(5);
  // Machine 7 is the true degrader; the synthesized rounds add a noisy false
  // outlier every ~3rd round.
  for (int round = 0; round < 5; ++round) {
    const auto stacks = SynthesizeFailSlowStacks(topo, 7, static_cast<std::uint64_t>(round));
    voter.AddRound(analyzer.Analyze(stacks, topo));
  }
  ASSERT_TRUE(voter.Ready());
  GroupKind kind;
  int index;
  ASSERT_TRUE(voter.Decide(&kind, &index));
  // The winning group must contain machine 7.
  bool contains = false;
  for (const ParallelGroup& g : topo.Groups(kind)) {
    if (g.index != index) {
      continue;
    }
    for (MachineId m : topo.MachinesOfGroup(g)) {
      if (m == 7) {
        contains = true;
      }
    }
  }
  EXPECT_TRUE(contains);
}

TEST(FailSlowVoterTest, NotReadyBeforeEnoughRounds) {
  FailSlowVoter voter(5);
  AggregationResult empty;
  EXPECT_FALSE(voter.AddRound(empty));
  EXPECT_FALSE(voter.Ready());
  EXPECT_EQ(voter.rounds_seen(), 1);
}

TEST(FailSlowVoterTest, UndecidedWithoutFlags) {
  FailSlowVoter voter(2);
  AggregationResult empty;
  voter.AddRound(empty);
  voter.AddRound(empty);
  ASSERT_TRUE(voter.Ready());
  GroupKind kind;
  int index;
  EXPECT_FALSE(voter.Decide(&kind, &index));
}

TEST(AggregationTest, DeterministicGroupOrdering) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  AggregationAnalyzer analyzer;
  const auto a = analyzer.Analyze(stacks, topo);
  const auto b = analyzer.Analyze(stacks, topo);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].key, b.groups[i].key);
  }
}

TEST(AggregationTest, EqualStacksBuiltSeparatelyShareAGroup) {
  const Topology topo = Fig7Topology();
  const StackTrace copy(HealthyGradSyncStack().frames());  // equal frames, own storage
  std::vector<ProcessStack> stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  for (ProcessStack& ps : stacks) {
    if (ps.rank % 2 == 0 && ps.stack == HealthyGradSyncStack()) {
      ps.stack = copy;
    }
  }
  const AggregationResult result = AggregationAnalyzer().Analyze(stacks, topo);
  EXPECT_EQ(result.groups.front().rank_count, 24);
  EXPECT_EQ(result.groups.size(), 4u);
}

TEST(AggregationTest, RejectsStackOnTheWrongMachine) {
  const Topology topo = Fig7Topology();
  std::vector<ProcessStack> stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  stacks[5].machine = 0;  // rank 5 lives on machine 2
  EXPECT_THROW(AggregationAnalyzer().Analyze(stacks, topo), std::invalid_argument);
}

// The run path and the per-rank adapter (expanded stacks packed back into
// runs) must agree on every field of the result.
void ExpectSameResult(const AggregationResult& runs, const AggregationResult& ranks,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(runs.groups.size(), ranks.groups.size());
  for (std::size_t g = 0; g < runs.groups.size(); ++g) {
    EXPECT_EQ(runs.groups[g].key, ranks.groups[g].key);
    EXPECT_EQ(runs.groups[g].representative, ranks.groups[g].representative);
    EXPECT_EQ(runs.groups[g].rank_count, ranks.groups[g].rank_count);
    EXPECT_EQ(runs.groups[g].rank_runs, ranks.groups[g].rank_runs);
    EXPECT_EQ(runs.groups[g].machine_runs, ranks.groups[g].machine_runs);
    EXPECT_EQ(runs.groups[g].healthy, ranks.groups[g].healthy);
  }
  EXPECT_EQ(runs.outlier_machines, ranks.outlier_machines);
  EXPECT_EQ(runs.found_group, ranks.found_group);
  EXPECT_EQ(runs.machines_to_evict, ranks.machines_to_evict);
  if (runs.found_group && ranks.found_group) {
    EXPECT_EQ(runs.isolated_group.kind, ranks.isolated_group.kind);
    EXPECT_EQ(runs.isolated_group.index, ranks.isolated_group.index);
    EXPECT_EQ(runs.isolated_group.ranks, ranks.isolated_group.ranks);
  }
}

ParallelismConfig Parallelism(int tp, int pp, int dp, int gpus_per_machine) {
  ParallelismConfig cfg;
  cfg.tp = tp;
  cfg.pp = pp;
  cfg.dp = dp;
  cfg.gpus_per_machine = gpus_per_machine;
  return cfg;
}

// Fig. 7, the two 9,600-GPU production jobs, and TP=2 on 8-GPU machines,
// where one machine holds several TP groups and runs cross machine edges.
std::vector<ParallelismConfig> EquivalenceTopologies() {
  return {Parallelism(2, 4, 4, 2), ProductionDenseJob().parallelism,
          ProductionMoeJob().parallelism, Parallelism(2, 4, 4, 8)};
}

TEST(RunAggregationEquivalenceTest, HangSnapshotsMatchThePerRankAdapter) {
  const AggregationAnalyzer analyzer;
  for (const ParallelismConfig& cfg : EquivalenceTopologies()) {
    const Topology topo(cfg);
    const Rank tp_edge = topo.RankOf({cfg.tp - 1, cfg.pp - 1, cfg.dp / 2});
    for (Rank culprit : {0, 1, tp_edge, topo.world_size() / 2, topo.world_size() - 1}) {
      for (HangSite site : {HangSite::kTensorCollective, HangSite::kPipelineP2p,
                            HangSite::kDataLoader, HangSite::kCheckpointWriter}) {
        const std::string where = cfg.ToString() + " culprit " + std::to_string(culprit) +
                                  " site " + std::to_string(static_cast<int>(site));
        ExpectSameResult(analyzer.Analyze(SynthesizeHangRuns(topo, culprit, site), topo),
                         analyzer.Analyze(SynthesizeHangStacks(topo, culprit, site), topo),
                         "hang " + where);
        const AggregationResult pod =
            analyzer.Analyze(SynthesizeFullPodRuns(topo, culprit, site), topo);
        ExpectSameResult(pod, analyzer.Analyze(SynthesizeFullPodStacks(topo, culprit, site), topo),
                         "full pod " + where);
        // Every hang is localized to a group holding the culprit's machine.
        const MachineId culprit_machine = topo.MachineOfRank(culprit);
        EXPECT_NE(std::find(pod.machines_to_evict.begin(), pod.machines_to_evict.end(),
                            culprit_machine),
                  pod.machines_to_evict.end())
            << where;
      }
    }
  }
}

TEST(RunAggregationEquivalenceTest, FailSlowRoundsMatchThePerRankAdapter) {
  const AggregationAnalyzer analyzer;
  for (const ParallelismConfig& cfg : {Parallelism(2, 4, 4, 2), ProductionDenseJob().parallelism}) {
    const Topology topo(cfg);
    for (MachineId slow : {0, topo.num_machines() / 2, topo.num_machines() - 1}) {
      for (std::uint64_t seed = 0; seed < 24; ++seed) {
        ExpectSameResult(analyzer.Analyze(SynthesizeFailSlowRuns(topo, slow, seed), topo),
                         analyzer.Analyze(SynthesizeFailSlowStacks(topo, slow, seed), topo),
                         cfg.ToString() + " slow " + std::to_string(slow) + " seed " +
                             std::to_string(seed));
      }
    }
  }
}

}  // namespace
}  // namespace byterobust
