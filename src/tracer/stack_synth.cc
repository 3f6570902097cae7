#include "src/tracer/stack_synth.h"

#include <algorithm>

namespace byterobust {

namespace {

// SplitMix64 hash for round jitter.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Roughly every third round, one random healthy machine is also caught
// mid-compute (sampling jitter): single-round aggregation would misfire.
// Returns that machine, or -1 for a clean round.
MachineId FailSlowNoiseMachine(std::uint64_t round_seed, int num_machines) {
  const std::uint64_t h = Mix(round_seed);
  if ((h % 3) != 0) {
    return -1;
  }
  return static_cast<MachineId>(Mix(h) % static_cast<std::uint64_t>(num_machines));
}

}  // namespace

const StackTrace& HealthyGradSyncStack() {
  static const StackTrace trace{{
      {"train_step", "my_megatron/training.py", 412},
      {"start_grad_sync", "my_megatron/distributed/param_grad_buffer.py", 597},
      {"_reduce_scatter_tensor", "torch/distributed/distributed_c10d.py", 3379},
  }};
  return trace;
}

const StackTrace& TensorCollectiveStack() {
  static const StackTrace trace{{
      {"backward", "my_megatron/large_centralized_op_v8.py", 6770},
      {"all_gather_into_tensor", "torch/distributed/distributed_c10d.py", 2898},
  }};
  return trace;
}

const StackTrace& PipelineIsendStack() {
  static const StackTrace trace{{
      {"send_backward_recv_backward", "my_megatron/communicate.py", 474},
      {"isend", "torch/distributed/distributed_c10d.py", 1529},
  }};
  return trace;
}

const StackTrace& PipelineIrecvStack() {
  static const StackTrace trace{{
      {"send_backward_recv_backward", "my_megatron/communicate.py", 474},
      {"irecv", "torch/distributed/distributed_c10d.py", 1569},
  }};
  return trace;
}

const StackTrace& DataLoaderWaitStack() {
  static const StackTrace trace{{
      {"train_step", "my_megatron/training.py", 398},
      {"get_batch", "my_megatron/data/loader.py", 122},
      {"queue_get", "multiprocessing/queues.py", 103},
  }};
  return trace;
}

const StackTrace& DataLoaderStuckStack() {
  static const StackTrace trace{{
      {"fetch_shard", "my_megatron/data/hdfs_reader.py", 233},
      {"read", "hdfs/client.py", 410},
  }};
  return trace;
}

const StackTrace& DataLoaderIdleStack() {
  static const StackTrace trace{{
      {"worker_loop", "my_megatron/data/loader.py", 58},
      {"poll", "multiprocessing/connection.py", 257},
  }};
  return trace;
}

const StackTrace& CkptWriterIdleStack() {
  static const StackTrace trace{{
      {"ckpt_io_loop", "my_megatron/ckpt/writer.py", 71},
      {"wait", "threading.py", 331},
  }};
  return trace;
}

const StackTrace& CkptWriterStuckStack() {
  static const StackTrace trace{{
      {"serialize_shard", "my_megatron/ckpt/writer.py", 144},
      {"write", "hdfs/client.py", 502},
  }};
  return trace;
}

const StackTrace& ComputeKernelStack() {
  static const StackTrace trace{{
      {"backward", "my_megatron/fused_kernels/attention.py", 512},
      {"_flash_attn_backward", "flash_attn/flash_attn_interface.py", 181},
  }};
  return trace;
}

namespace {

const StackTrace& WaitCkptFlushStack() {
  // Optimizer step gated on the wedged checkpoint save (Sec. 6.3: the step
  // waits for each rank's own save to complete).
  static const StackTrace trace{{
      {"optimizer_step", "my_megatron/training.py", 455},
      {"wait_ckpt_flush", "my_megatron/ckpt/manager.py", 203},
  }};
  return trace;
}

// What the culprit's own trainer shows for each hang site.
const StackTrace& CulpritTrainerStack(HangSite site) {
  switch (site) {
    case HangSite::kTensorCollective:
      return TensorCollectiveStack();
    case HangSite::kPipelineP2p:
      return PipelineIrecvStack();
    case HangSite::kDataLoader:
      return DataLoaderWaitStack();  // trainer starves waiting for the batch
    case HangSite::kCheckpointWriter:
      return WaitCkptFlushStack();
  }
  return TensorCollectiveStack();
}

// Appends ranks [first, first + count) to `runs`, extending the last run
// when they continue it with the same kind and stack. Empty ranges vanish.
void Append(std::vector<StackRun>* runs, Rank first, int count, ProcessKind kind,
            const StackTrace& stack) {
  if (count <= 0) {
    return;
  }
  if (!runs->empty()) {
    StackRun& last = runs->back();
    if (last.kind == kind && last.stack == &stack && last.first + last.count == first) {
      last.count += count;
      return;
    }
  }
  runs->push_back(StackRun{first, count, kind, &stack});
}

// `idle` on every rank but the culprit, which shows `culprit_stack`.
void AppendAroundCulprit(std::vector<StackRun>* runs, const Topology& topology, Rank culprit,
                         ProcessKind kind, const StackTrace& idle,
                         const StackTrace& culprit_stack) {
  Append(runs, 0, culprit, kind, idle);
  Append(runs, culprit, 1, kind, culprit_stack);
  Append(runs, culprit + 1, topology.world_size() - culprit - 1, kind, idle);
}

// Expands runs to one ProcessStack per process: trainers first in rank
// order, then each rank's dataloader and checkpoint writer side by side.
// Every snapshot covers all trainers and either all or none of the
// subprocesses, so each process lands in its own slot.
std::vector<ProcessStack> ExpandRuns(const Topology& topology, const std::vector<StackRun>& runs) {
  std::size_t processes = 0;
  for (const StackRun& run : runs) {
    processes += static_cast<std::size_t>(run.count);
  }
  const std::size_t world = static_cast<std::size_t>(topology.world_size());
  std::vector<ProcessStack> out(processes);
  for (const StackRun& run : runs) {
    for (Rank r = run.first; r < run.first + run.count; ++r) {
      std::size_t slot = static_cast<std::size_t>(r);
      if (run.kind != ProcessKind::kTrainer) {
        slot = world + 2 * slot + (run.kind == ProcessKind::kCheckpointWriter ? 1 : 0);
      }
      out[slot] = ProcessStack{r, topology.MachineOfRank(r), run.kind, *run.stack};
    }
  }
  return out;
}

}  // namespace

std::vector<StackRun> SynthesizeHangRuns(const Topology& topology, Rank culprit, HangSite site) {
  // Ranks are laid out TP-innermost, then PP, then DP, so each rule of the
  // Fig. 7 propagation pattern covers one contiguous rank range.
  const int tp = topology.config().tp;
  const RankCoord cc = topology.CoordOf(culprit);
  const Rank column = tp * topology.config().pp * cc.dp;  // the culprit's DP column, pp = 0
  const Rank tp_group = column + tp * cc.pp;              // the culprit's TP group
  std::vector<StackRun> runs;
  Append(&runs, 0, column, ProcessKind::kTrainer, HealthyGradSyncStack());
  // Pipeline starvation hits whole stages of the culprit's DP column below
  // the stalled one (Fig. 7, machines 12-14): backward gradients flow toward
  // stage 0, so the adjacent stage is caught mid fused send/recv in isend and
  // earlier stages in irecv.
  if (cc.pp > 0) {
    Append(&runs, column, tp * (cc.pp - 1), ProcessKind::kTrainer, PipelineIrecvStack());
    Append(&runs, tp_group - tp, tp, ProcessKind::kTrainer, PipelineIsendStack());
  }
  // The culprit's TP peers wait in the same tensor-parallel collective.
  Append(&runs, tp_group, culprit - tp_group, ProcessKind::kTrainer, TensorCollectiveStack());
  Append(&runs, culprit, 1, ProcessKind::kTrainer, CulpritTrainerStack(site));
  Append(&runs, culprit + 1, tp_group + tp - culprit - 1, ProcessKind::kTrainer,
         TensorCollectiveStack());
  // Everyone else completed backward kernels and parks in DP gradient sync.
  Append(&runs, tp_group + tp, topology.world_size() - tp_group - tp, ProcessKind::kTrainer,
         HealthyGradSyncStack());
  return runs;
}

std::vector<StackRun> SynthesizeFullPodRuns(const Topology& topology, Rank culprit,
                                            HangSite site) {
  std::vector<StackRun> runs = SynthesizeHangRuns(topology, culprit, site);
  AppendAroundCulprit(&runs, topology, culprit, ProcessKind::kDataLoader, DataLoaderIdleStack(),
                      site == HangSite::kDataLoader ? DataLoaderStuckStack()
                                                    : DataLoaderIdleStack());
  AppendAroundCulprit(&runs, topology, culprit, ProcessKind::kCheckpointWriter,
                      CkptWriterIdleStack(),
                      site == HangSite::kCheckpointWriter ? CkptWriterStuckStack()
                                                          : CkptWriterIdleStack());
  return runs;
}

std::vector<StackRun> SynthesizeFailSlowRuns(const Topology& topology, MachineId slow_machine,
                                             std::uint64_t round_seed) {
  const MachineId noisy = FailSlowNoiseMachine(round_seed, topology.num_machines());
  const auto [low, high] = std::minmax({slow_machine, noisy});
  const int gpus = topology.config().gpus_per_machine;
  std::vector<StackRun> runs;
  Rank next = 0;
  for (MachineId laggard : {low, high}) {
    // Skip -1 (no jitter this round), a machine outside the topology, and
    // jitter that lands on the slow machine itself.
    if (laggard < 0 || laggard >= topology.num_machines() || laggard * gpus < next) {
      continue;
    }
    Append(&runs, next, laggard * gpus - next, ProcessKind::kTrainer, HealthyGradSyncStack());
    Append(&runs, laggard * gpus, gpus, ProcessKind::kTrainer, ComputeKernelStack());
    next = (laggard + 1) * gpus;
  }
  Append(&runs, next, topology.world_size() - next, ProcessKind::kTrainer,
         HealthyGradSyncStack());
  return runs;
}

std::vector<ProcessStack> SynthesizeHangStacks(const Topology& topology, Rank culprit,
                                               HangSite site) {
  return ExpandRuns(topology, SynthesizeHangRuns(topology, culprit, site));
}

std::vector<ProcessStack> SynthesizeFullPodStacks(const Topology& topology, Rank culprit,
                                                  HangSite site) {
  return ExpandRuns(topology, SynthesizeFullPodRuns(topology, culprit, site));
}

std::vector<ProcessStack> SynthesizeFailSlowStacks(const Topology& topology,
                                                   MachineId slow_machine,
                                                   std::uint64_t round_seed) {
  return ExpandRuns(topology, SynthesizeFailSlowRuns(topology, slow_machine, round_seed));
}

}  // namespace byterobust
