// Stack synthesis: produces the stacks the on-demand tracer would capture
// for a given runtime condition, implementing the hang-propagation pattern
// of Fig. 7. The rules emit rank runs (StackRun); the per-rank
// ProcessStack forms expand them.
//
// When one rank stalls, its TP peers block in the same tensor-parallel
// collective; the adjacent upstream pipeline stage blocks in isend, earlier
// stages in irecv; every other rank finishes its backward pass and parks in
// the data-parallel gradient sync (reduce-scatter) — the dominant "healthy"
// stack group.

#ifndef SRC_TRACER_STACK_SYNTH_H_
#define SRC_TRACER_STACK_SYNTH_H_

#include <cstdint>
#include <vector>

#include "src/topology/parallelism.h"
#include "src/tracer/stack_trace.h"

namespace byterobust {

// Where the hang originates.
enum class HangSite {
  kTensorCollective,  // stuck in all_gather_into_tensor (Fig. 7: machine 15)
  kPipelineP2p,       // stuck in pipeline send/recv (evaluation hang, Sec. 5.2)
  kDataLoader,        // culprit's dataloader subprocess wedged (e.g. HDFS read)
  kCheckpointWriter,  // culprit's checkpoint I/O subprocess wedged
};

// Canonical stacks (shared with tests so expectations stay in one place).
// Each is a single interned instance that lives for the whole program, so
// StackRuns can point at it.
const StackTrace& HealthyGradSyncStack();
const StackTrace& TensorCollectiveStack();
const StackTrace& PipelineIsendStack();
const StackTrace& PipelineIrecvStack();
const StackTrace& DataLoaderWaitStack();   // trainer waiting on the data queue
const StackTrace& DataLoaderStuckStack();  // dataloader wedged in storage read
const StackTrace& DataLoaderIdleStack();   // healthy dataloader stack
const StackTrace& CkptWriterIdleStack();
const StackTrace& CkptWriterStuckStack();
const StackTrace& ComputeKernelStack();    // mid-backward compute (fail-slow laggard)

// Snapshots as rank runs, ordered by kind (trainers, dataloaders, checkpoint
// writers) and then by rank. Each is a few runs per process kind whatever
// the world size.

// Trainer-process stacks for a hang seeded at `culprit` with the given site.
std::vector<StackRun> SynthesizeHangRuns(const Topology& topology, Rank culprit, HangSite site);

// Trainer + subprocess stacks (3 per rank), used when the root cause may sit
// in a subprocess.
std::vector<StackRun> SynthesizeFullPodRuns(const Topology& topology, Rank culprit,
                                            HangSite site);

// Fail-slow snapshot: the ranks on `slow_machine` appear mid-compute while
// the rest wait at the synchronization barrier. `round_seed` adds one noisy
// false outlier every few rounds, modelling sampling jitter; the analyzer's
// multi-round voting (Sec. 5.1) must see through it.
std::vector<StackRun> SynthesizeFailSlowRuns(const Topology& topology, MachineId slow_machine,
                                             std::uint64_t round_seed);

// The same snapshots with one ProcessStack per process: trainers in rank
// order, then each rank's dataloader and checkpoint writer side by side.
std::vector<ProcessStack> SynthesizeHangStacks(const Topology& topology, Rank culprit,
                                               HangSite site);
std::vector<ProcessStack> SynthesizeFullPodStacks(const Topology& topology, Rank culprit,
                                                  HangSite site);
std::vector<ProcessStack> SynthesizeFailSlowStacks(const Topology& topology,
                                                   MachineId slow_machine,
                                                   std::uint64_t round_seed);

}  // namespace byterobust

#endif  // SRC_TRACER_STACK_SYNTH_H_
