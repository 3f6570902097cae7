// Hang diagnosis walkthrough: reproduces the paper's Fig. 7 end to end.
//
// A backward-communication hang is seeded at rank 30 (machine 15, the last
// pipeline stage) of a TP=2 x PP=4 x DP=4 job. The on-demand tracer parses
// each pod's process tree, captures stacks from every training-related
// process, and the runtime analyzer clusters them by string matching: the
// dominant group is healthy, the outliers share one PP group, and that group
// is over-evicted.
//
// Build & run:  ./build/examples/hang_diagnosis

#include <cstdio>
#include <map>

#include "src/analyzer/aggregation.h"
#include "src/tracer/process_tree.h"
#include "src/tracer/stack_synth.h"

using namespace byterobust;

int main() {
  ParallelismConfig par;
  par.tp = 2;
  par.pp = 4;
  par.dp = 4;
  par.gpus_per_machine = 2;
  Topology topo(par);
  std::printf("job topology: %s\n", par.ToString().c_str());

  // (1) Parse the process tree of one pod (Fig. 7 step 1).
  const ProcessTree tree = ProcessTree::BuildPodTree(/*machine=*/0, par.gpus_per_machine);
  std::printf("\n(1) process tree of pod 0 (%zu processes, %zu training-related):\n",
              tree.nodes().size(), tree.TrainingProcesses().size());
  for (const ProcessNode& node : tree.nodes()) {
    std::printf("  pid %2d (parent %2d)  %-34s %s\n", node.pid, node.parent_pid,
                node.cmdline.c_str(), node.kind ? ProcessKindName(*node.kind) : "");
  }

  // (2) Seed the hang at rank 30 and capture stacks from every rank.
  const Rank culprit = 30;
  std::printf("\n(2) rank %d (machine %d, pp stage 3) stalls in the tensor-parallel\n",
              culprit, topo.MachineOfRank(culprit));
  std::printf("    all-gather during backward; capturing stacks...\n\n");
  const auto stacks = SynthesizeHangStacks(topo, culprit, HangSite::kTensorCollective);

  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);
  std::printf("stack aggregation groups (dominant = healthy):\n");
  for (const StackGroup& group : result.groups) {
    std::printf("--- group of %d ranks on machines [", group.rank_count);
    for (std::size_t i = 0; i < group.machine_runs.size(); ++i) {
      const IdRun& run = group.machine_runs[i];
      std::printf("%s%d", i ? "," : "", run.first);
      if (run.count > 1) {
        std::printf("-%d", run.last());
      }
    }
    std::printf("] %s\n%s", group.healthy ? "(healthy)" : "(OUTLIER)",
                group.representative.ToString().c_str());
  }

  // (3) The outliers' shared parallel group is isolated and over-evicted.
  std::printf("(3) outlier machines: [");
  for (std::size_t i = 0; i < result.outlier_machines.size(); ++i) {
    std::printf("%s%d", i ? "," : "", result.outlier_machines[i]);
  }
  std::printf("]\n");
  if (result.found_group) {
    std::printf("    shared parallel group: one %s group -> over-evicting machines [",
                GroupKindName(result.isolated_group.kind));
    for (std::size_t i = 0; i < result.machines_to_evict.size(); ++i) {
      std::printf("%s%d", i ? "," : "", result.machines_to_evict[i]);
    }
    std::printf("]\n");
  }
  std::printf("\nNo exact root-cause pinpointing needed: the suspects are isolated at the\n"
              "fault-domain (parallel group) boundary and training restarts on warm\n"
              "standbys, exactly as in the paper's evaluation-hang case study (Sec. 5.2).\n");
  return 0;
}
