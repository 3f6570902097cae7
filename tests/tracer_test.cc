// Unit tests for the tracer: process trees and stack synthesis (Fig. 7).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/tracer/process_tree.h"
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

TEST(StackTraceTest, KeyIsCanonicalAndDistinct) {
  EXPECT_EQ(HealthyGradSyncStack().Key(), HealthyGradSyncStack().Key());
  EXPECT_NE(HealthyGradSyncStack().Key(), TensorCollectiveStack().Key());
  EXPECT_NE(PipelineIsendStack().Key(), PipelineIrecvStack().Key());
  EXPECT_NE(HealthyGradSyncStack().ToString(), "");
}

TEST(ProcessTreeTest, PodTreeShape) {
  const ProcessTree tree = ProcessTree::BuildPodTree(5, 8);
  EXPECT_EQ(tree.machine(), 5);
  // root + launcher + robust agent + 8 x (trainer + dataloader + ckpt writer)
  EXPECT_EQ(tree.nodes().size(), 3u + 24u);
  EXPECT_EQ(tree.TrainingProcesses().size(), 24u);
  const ProcessNode* trainer = tree.TrainerFor(3);
  ASSERT_NE(trainer, nullptr);
  EXPECT_EQ(trainer->kind, ProcessKind::kTrainer);
  // Each trainer forks exactly a dataloader and a ckpt writer.
  const auto children = tree.ChildrenOf(trainer->pid);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->kind, ProcessKind::kDataLoader);
  EXPECT_EQ(children[1]->kind, ProcessKind::kCheckpointWriter);
  EXPECT_EQ(tree.TrainerFor(99), nullptr);
}

TEST(StackSynthTest, Fig7BackwardHangPattern) {
  // Culprit: rank 30 (tp=0, pp=3, dp=3) on machine 15, stuck in the TP
  // all-gather. Expect exactly the Fig. 7 groups:
  //   machines 0-11 (24 ranks): healthy reduce-scatter stacks
  //   machine 15 (ranks 30, 31): all_gather_into_tensor
  //   machine 14 (pp=2, dp=3): isend
  //   machines 12-13 (pp=0..1, dp=3): irecv
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  ASSERT_EQ(stacks.size(), 32u);

  std::map<std::string, int> counts;
  for (const auto& ps : stacks) {
    ++counts[ps.stack.Key()];
  }
  EXPECT_EQ(counts[HealthyGradSyncStack().Key()], 24);
  EXPECT_EQ(counts[TensorCollectiveStack().Key()], 2);
  EXPECT_EQ(counts[PipelineIsendStack().Key()], 2);
  EXPECT_EQ(counts[PipelineIrecvStack().Key()], 4);

  for (const auto& ps : stacks) {
    if (ps.stack == TensorCollectiveStack()) {
      EXPECT_EQ(ps.machine, 15);
    } else if (ps.stack == PipelineIsendStack()) {
      EXPECT_EQ(ps.machine, 14);
    } else if (ps.stack == PipelineIrecvStack()) {
      EXPECT_TRUE(ps.machine == 12 || ps.machine == 13);
    } else {
      EXPECT_LE(ps.machine, 11);
    }
  }
}

TEST(StackSynthTest, MidPipelineCulpritOnlyStallsEarlierStages) {
  const Topology topo = Fig7Topology();
  // Culprit rank 10 = (tp=0, pp=1, dp=1): stage 0 of that column starves;
  // stages 2-3 already finished their backward sends and park in grad sync.
  const auto stacks = SynthesizeHangStacks(topo, 10, HangSite::kTensorCollective);
  std::map<std::string, int> counts;
  for (const auto& ps : stacks) {
    ++counts[ps.stack.Key()];
  }
  EXPECT_EQ(counts[TensorCollectiveStack().Key()], 2);   // culprit TP pair
  EXPECT_EQ(counts[PipelineIsendStack().Key()], 2);      // pp=0 machine (adjacent)
  EXPECT_EQ(counts[PipelineIrecvStack().Key()], 0);      // nothing below pp=0
  EXPECT_EQ(counts[HealthyGradSyncStack().Key()], 28);
}

TEST(StackSynthTest, PipelineP2pSiteMarksCulpritInIrecv) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kPipelineP2p);
  bool culprit_found = false;
  for (const auto& ps : stacks) {
    if (ps.rank == 30) {
      culprit_found = true;
      EXPECT_EQ(ps.stack, PipelineIrecvStack());
    }
  }
  EXPECT_TRUE(culprit_found);
}

TEST(StackSynthTest, FullPodStacksIncludeSubprocesses) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 6, HangSite::kDataLoader);
  EXPECT_EQ(stacks.size(), 3u * 32u);
  int stuck_loaders = 0;
  int starving_trainers = 0;
  for (const auto& ps : stacks) {
    if (ps.kind == ProcessKind::kDataLoader && ps.stack == DataLoaderStuckStack()) {
      ++stuck_loaders;
      EXPECT_EQ(ps.rank, 6);
    }
    if (ps.kind == ProcessKind::kTrainer && ps.stack == DataLoaderWaitStack()) {
      ++starving_trainers;
      EXPECT_EQ(ps.rank, 6);
    }
  }
  EXPECT_EQ(stuck_loaders, 1);
  EXPECT_EQ(starving_trainers, 1);
}

TEST(StackSynthTest, CheckpointWriterSiteBlocksOptimizerStep) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 9, HangSite::kCheckpointWriter);
  int stuck_writers = 0;
  for (const auto& ps : stacks) {
    if (ps.kind == ProcessKind::kCheckpointWriter && ps.stack == CkptWriterStuckStack()) {
      ++stuck_writers;
      EXPECT_EQ(ps.rank, 9);
    }
  }
  EXPECT_EQ(stuck_writers, 1);
}

TEST(StackSynthTest, FailSlowLaggardShowsComputeStack) {
  const Topology topo = Fig7Topology();
  // Pick a seed whose round adds no noise; the laggard machine's two ranks
  // are the only compute stacks.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto stacks = SynthesizeFailSlowStacks(topo, 7, seed);
    int compute = 0;
    bool machine7_compute = false;
    for (const auto& ps : stacks) {
      if (ps.stack == ComputeKernelStack()) {
        ++compute;
        if (ps.machine == 7) {
          machine7_compute = true;
        }
      }
    }
    EXPECT_TRUE(machine7_compute) << "laggard machine must look busy";
    EXPECT_GE(compute, 2);
    EXPECT_LE(compute, 4);  // at most one extra noisy machine
  }
}

TEST(StackSynthTest, FailSlowNoiseIsDeterministicPerSeed) {
  const Topology topo = Fig7Topology();
  const auto a = SynthesizeFailSlowStacks(topo, 3, 42);
  const auto b = SynthesizeFailSlowStacks(topo, 3, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stack, b[i].stack);
  }
}

// The Fig. 7 propagation rule stated per rank, from coordinates: the oracle
// for the run-length synthesis. Null stands for the culprit's wait on its
// own checkpoint flush (checkpoint-writer site).
const StackTrace* ExpectedTrainerStack(const Topology& topo, Rank rank, Rank culprit,
                                       HangSite site) {
  const RankCoord rc = topo.CoordOf(rank);
  const RankCoord cc = topo.CoordOf(culprit);
  if (rank == culprit && site == HangSite::kPipelineP2p) {
    return &PipelineIrecvStack();
  }
  if (rank == culprit && site == HangSite::kDataLoader) {
    return &DataLoaderWaitStack();
  }
  if (rank == culprit && site == HangSite::kCheckpointWriter) {
    return nullptr;
  }
  if (rc.pp == cc.pp && rc.dp == cc.dp) {
    return &TensorCollectiveStack();
  }
  if (rc.dp == cc.dp && rc.pp < cc.pp) {
    return rc.pp == cc.pp - 1 ? &PipelineIsendStack() : &PipelineIrecvStack();
  }
  return &HealthyGradSyncStack();
}

TEST(StackRunTest, HangRunsFollowThePerRankRule) {
  ParallelismConfig tp2_gpm8;
  tp2_gpm8.tp = 2;
  tp2_gpm8.pp = 4;
  tp2_gpm8.dp = 4;
  tp2_gpm8.gpus_per_machine = 8;
  ParallelismConfig tp4_pp3;
  tp4_pp3.tp = 4;
  tp4_pp3.pp = 3;
  tp4_pp3.dp = 2;
  tp4_pp3.gpus_per_machine = 4;
  for (const Topology& topo : {Fig7Topology(), Topology(tp2_gpm8), Topology(tp4_pp3)}) {
    for (Rank culprit = 0; culprit < topo.world_size(); ++culprit) {
      for (HangSite site : {HangSite::kTensorCollective, HangSite::kPipelineP2p,
                            HangSite::kDataLoader, HangSite::kCheckpointWriter}) {
        const auto stacks = SynthesizeFullPodStacks(topo, culprit, site);
        ASSERT_EQ(stacks.size(), 3u * static_cast<std::size_t>(topo.world_size()));
        for (Rank r = 0; r < topo.world_size(); ++r) {
          const std::size_t i = static_cast<std::size_t>(r);
          const std::size_t world = static_cast<std::size_t>(topo.world_size());
          const ProcessStack& trainer = stacks[i];
          const ProcessStack& loader = stacks[world + 2 * i];
          const ProcessStack& writer = stacks[world + 2 * i + 1];
          const std::string where = topo.config().ToString() + " culprit " +
                                    std::to_string(culprit) + " rank " + std::to_string(r);
          for (const ProcessStack* ps : {&trainer, &loader, &writer}) {
            EXPECT_EQ(ps->rank, r) << where;
            EXPECT_EQ(ps->machine, topo.MachineOfRank(r)) << where;
          }
          ASSERT_EQ(trainer.kind, ProcessKind::kTrainer) << where;
          ASSERT_EQ(loader.kind, ProcessKind::kDataLoader) << where;
          ASSERT_EQ(writer.kind, ProcessKind::kCheckpointWriter) << where;
          const StackTrace* expected = ExpectedTrainerStack(topo, r, culprit, site);
          if (expected == nullptr) {
            EXPECT_NE(trainer.stack.Key().find("wait_ckpt_flush"), std::string::npos) << where;
          } else {
            EXPECT_EQ(trainer.stack, *expected) << where;
          }
          const bool culprit_loader = r == culprit && site == HangSite::kDataLoader;
          const bool culprit_writer = r == culprit && site == HangSite::kCheckpointWriter;
          EXPECT_EQ(loader.stack, culprit_loader ? DataLoaderStuckStack() : DataLoaderIdleStack())
              << where;
          EXPECT_EQ(writer.stack, culprit_writer ? CkptWriterStuckStack() : CkptWriterIdleStack())
              << where;
        }
      }
    }
  }
}

TEST(StackRunTest, FailSlowRunsMarkWholeLaggardMachines) {
  const Topology topo = Fig7Topology();
  for (MachineId slow : {0, 7, 15}) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      int compute_machines = 0;
      Rank next = 0;
      for (const StackRun& run : SynthesizeFailSlowRuns(topo, slow, seed)) {
        EXPECT_EQ(run.first, next);  // rank order, no gaps
        next = run.first + run.count;
        EXPECT_EQ(run.kind, ProcessKind::kTrainer);
        if (*run.stack == ComputeKernelStack()) {
          EXPECT_EQ(run.first % 2, 0);
          EXPECT_EQ(run.count % 2, 0);
          compute_machines += run.count / 2;
        } else {
          EXPECT_EQ(*run.stack, HealthyGradSyncStack());
        }
      }
      EXPECT_EQ(next, topo.world_size());
      EXPECT_GE(compute_machines, 1);
      EXPECT_LE(compute_machines, 2);
    }
  }
}

TEST(StackRunTest, PodSnapshotIsAFewRunsAtAnyScale) {
  const Topology topo(ProductionDenseJob().parallelism);
  for (Rank culprit : {0, topo.world_size() / 2, topo.world_size() - 1}) {
    const auto runs = SynthesizeFullPodRuns(topo, culprit, HangSite::kDataLoader);
    // Trainers: healthy, irecv, isend, TP peers, culprit, TP peers, healthy;
    // each subprocess kind: idle, stuck-or-idle, idle.
    EXPECT_LE(runs.size(), 13u);
    int processes = 0;
    for (const StackRun& run : runs) {
      EXPECT_GT(run.count, 0);
      processes += run.count;
    }
    EXPECT_EQ(processes, 3 * topo.world_size());
  }
}

}  // namespace
}  // namespace byterobust
