// Training-job configuration and the paper's concrete setups (Table 5).

#ifndef SRC_TRAINING_JOB_CONFIG_H_
#define SRC_TRAINING_JOB_CONFIG_H_

#include <string>

#include "src/common/sim_time.h"
#include "src/topology/parallelism.h"

namespace byterobust {

enum class ModelArch {
  kDense,  // Llama-like dense transformer
  kMoe,    // sparse mixture-of-experts
};

struct JobConfig {
  std::string name = "job";
  ModelArch arch = ModelArch::kDense;
  double model_params_b = 70.0;  // parameter count, billions
  ParallelismConfig parallelism;
  int global_batch_size = 512;
  int num_microbatches = 8;

  // Nominal per-step wall time at efficiency 1.0 with healthy hardware.
  SimDuration base_step_time = Seconds(15);

  // Model FLOPs Utilization of the initial (naive) code version. Hot updates
  // raise the relative MFU over the campaign (Fig. 11: 1.25x dense, 1.58x MoE).
  double base_mfu = 0.32;

  // Step runs: a completing step claims the follow-on steps that fit
  // strictly before the next pending simulator event inline, as whole runs
  // bounded by the step observers' horizons, instead of scheduling one event
  // per step. Observable behavior (the expanded StepRecord stream, campaign
  // JSON) is identical either way; the switch exists so equivalence tests
  // can pin the one-step-per-event reference path.
  bool batched_stepping = true;

  // Loss-curve parameters (power-law decay, Fig. 2).
  double loss_initial = 11.0;
  double loss_floor = 1.75;
  double loss_decay_steps = 2000.0;  // scale of the power-law knee
  double loss_decay_alpha = 0.35;
  double loss_noise_stddev = 0.006;
};

// Table 5 setups. `scale_machines` in {128, 256} for the 70B model and
// {512, 1024} for the 256B model; 16 GPUs per machine (L20 testbed).
JobConfig Table5Job70B(int scale_machines);
JobConfig Table5Job256B(int scale_machines);

// The two production pretraining jobs of Sec. 8.1: a three-month dense 70+B
// job and a one-month MoE 200+B job, both on 9,600 Hopper GPUs (8/machine).
JobConfig ProductionDenseJob();
JobConfig ProductionMoeJob();

}  // namespace byterobust

#endif  // SRC_TRAINING_JOB_CONFIG_H_
