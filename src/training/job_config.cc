#include "src/training/job_config.h"

#include <stdexcept>

namespace byterobust {

JobConfig Table5Job70B(int scale_machines) {
  JobConfig cfg;
  cfg.arch = ModelArch::kMoe;  // Table 5 evaluates sparse LLMs (Sec. 8.2.2)
  cfg.model_params_b = 70.0;
  cfg.parallelism.gpus_per_machine = 16;
  cfg.parallelism.tp = 8;
  cfg.parallelism.pp = 8;
  switch (scale_machines) {
    case 128:
      cfg.name = "70B-128x16";
      cfg.parallelism.dp = 32;
      cfg.global_batch_size = 512;
      break;
    case 256:
      cfg.name = "70B-256x16";
      cfg.parallelism.dp = 64;
      cfg.global_batch_size = 1024;
      break;
    default:
      throw std::invalid_argument("70B setup exists for 128 or 256 machines");
  }
  return cfg;
}

JobConfig Table5Job256B(int scale_machines) {
  JobConfig cfg;
  cfg.arch = ModelArch::kMoe;
  cfg.model_params_b = 256.0;
  cfg.parallelism.gpus_per_machine = 16;
  cfg.parallelism.tp = 8;
  cfg.parallelism.pp = 16;
  switch (scale_machines) {
    case 512:
      cfg.name = "256B-512x16";
      cfg.parallelism.dp = 64;
      cfg.global_batch_size = 1024;
      break;
    case 1024:
      cfg.name = "256B-1024x16";
      cfg.parallelism.dp = 128;
      cfg.global_batch_size = 2048;
      break;
    default:
      throw std::invalid_argument("256B setup exists for 512 or 1024 machines");
  }
  return cfg;
}

JobConfig ProductionDenseJob() {
  JobConfig cfg;
  cfg.name = "dense-70B";
  cfg.arch = ModelArch::kDense;
  cfg.model_params_b = 70.0;
  cfg.parallelism.gpus_per_machine = 8;
  cfg.parallelism.tp = 8;
  cfg.parallelism.pp = 8;
  cfg.parallelism.dp = 150;  // 9,600 GPUs total
  cfg.global_batch_size = 1200;
  cfg.base_step_time = Seconds(20);
  return cfg;
}

JobConfig ProductionMoeJob() {
  JobConfig cfg;
  cfg.name = "moe-200B";
  cfg.arch = ModelArch::kMoe;
  cfg.model_params_b = 200.0;
  cfg.parallelism.gpus_per_machine = 8;
  cfg.parallelism.tp = 8;
  cfg.parallelism.pp = 10;
  cfg.parallelism.dp = 120;  // 9,600 GPUs total
  cfg.global_batch_size = 960;
  cfg.base_step_time = Seconds(25);
  cfg.base_mfu = 0.24;  // naive MoE code starts less optimized (Sec. 8.1.3)
  return cfg;
}

}  // namespace byterobust
