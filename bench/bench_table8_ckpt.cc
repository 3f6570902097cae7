// Table 8 reproduction: checkpointing efficiency of ByteRobust save vs
// Memory save (Gemini-style) and Megatron save, on the Table 5 sparse-LLM
// setups. Blocking time is the per-iteration checkpoint stall; MFU is
// relative to training without checkpointing.

#include <cstdio>

#include "src/ckpt/cost_model.h"
#include "src/ckpt/size_model.h"
#include "src/common/table.h"
#include "src/training/job_config.h"

using namespace byterobust;

int main() {
  std::printf("=== Table 8: checkpointing efficiency (every-iteration saves) ===\n\n");

  struct Setup {
    JobConfig config;
    SimDuration step_time;
    const char* paper_rows;  // paper blocking (s) megatron/memory/byterobust
  };
  const Setup setups[] = {
      {Table5Job70B(128), Seconds(4.3), "6.77 / 1.84 / 0.04"},
      {Table5Job70B(256), Seconds(4.3), "7.14 / 1.69 / 0.03"},
      {Table5Job256B(512), Seconds(9.8), "13.02 / 0.22 / 0.01"},
      {Table5Job256B(1024), Seconds(9.8), "12.98 / 0.18 / 0.02"},
  };

  const CheckpointCostModel model;
  TablePrinter table({"Model/Scale", "Approach", "Blocking Time (s)", "MFU (%)",
                      "Paper blocking M/G/B (s)"});
  for (const Setup& s : setups) {
    bool first = true;
    for (CkptApproach approach : {CkptApproach::kMegatronSave, CkptApproach::kMemorySave,
                                  CkptApproach::kByteRobustSave}) {
      const CkptCost cost = model.Evaluate(approach, s.config, s.step_time);
      table.AddRow({first ? s.config.name : "", CkptApproachName(approach),
                    FormatDouble(ToSeconds(cost.blocking_per_step), 2),
                    FormatDouble(cost.relative_mfu * 100.0, 2),
                    first ? s.paper_rows : ""});
      first = false;
    }
  }
  table.Print();

  std::printf("\nper-rank checkpoint payloads (model + ZeRO-1 optimizer shards):\n");
  for (const Setup& s : setups) {
    std::printf("  %-13s %.2f GB model + %.2f GB optimizer per rank, %.0f GB whole job\n",
                s.config.name.c_str(), CheckpointSizeModel::ModelBytesPerRank(s.config) / 1e9,
                CheckpointSizeModel::OptimizerBytesPerRank(s.config) / 1e9,
                CheckpointSizeModel::TotalJobBytes(s.config) / 1e9);
  }

  std::printf("\nShape check vs paper: ByteRobust save blocks for hundredths of a second\n");
  std::printf("(>99%% relative MFU) by isolating D2H on a dedicated stream and gating the\n");
  std::printf("optimizer step only on its own save; Memory save blocks for the full D2H\n");
  std::printf("snapshot; Megatron save serializes synchronously and loses ~60%% MFU.\n");
  std::printf("Known deviation: the paper's Memory-save blocking *shrinks* at 256B scale\n");
  std::printf("(0.22 s), which depends on unpublished MoE sharding details; our model\n");
  std::printf("keeps it proportional to the per-rank payload (src/ckpt/cost_model.cc).\n");
  return 0;
}
