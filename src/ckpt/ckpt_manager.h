// CKPT manager (data plane): high-frequency asynchronous checkpointing with a
// dual CPU-tensor buffer and cross-parallel-group backups (paper Secs. 6.3
// and 7). Saves run every step; failure recovery restores the latest
// checkpoint whose D2H copy *and* serialization both completed.

#ifndef SRC_CKPT_CKPT_MANAGER_H_
#define SRC_CKPT_CKPT_MANAGER_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "src/ckpt/backup_strategy.h"
#include "src/ckpt/cost_model.h"
#include "src/sim/simulator.h"
#include "src/training/train_job.h"

namespace byterobust {

struct CkptManagerConfig {
  CkptApproach approach = CkptApproach::kByteRobustSave;
  CkptBandwidths bandwidths;
  int save_every_steps = 1;

  // Host-side serialization throughput of the async pipeline, GB/s.
  double serialize_async_gbps = 2.0;

  // Restore-path parameters. Local restores read CPU-memory / local-SSD
  // copies (evicted slots fetch their shards from cross-group backup peers);
  // the remote baseline pulls the whole checkpoint over the low-bandwidth
  // frontend network to a remote file system.
  double local_load_gbps_per_rank = 10.0;
  double remote_load_aggregate_gbps = 8.0;
  SimDuration local_load_overhead = Seconds(5);
  SimDuration remote_load_overhead = Seconds(120);
};

class CheckpointManager : private StepObserver {
 public:
  CheckpointManager(const CkptManagerConfig& config, Simulator* sim, TrainJob* job);

  // The step to resume from after a failure: one past the newest durable
  // completed step (0 when nothing durable exists yet).
  std::int64_t RestorableResumeStep() const {
    DrainCompletedSaves();
    return durable_step_ + 1 > 0 ? durable_step_ + 1 : 0;
  }
  std::int64_t durable_step() const {
    DrainCompletedSaves();
    return durable_step_;
  }

  // Time to load the restorable checkpoint into a restarted job.
  SimDuration LoadTime(bool from_remote) const;

  const BackupPlan& backup_plan() const { return *backup_plan_; }

  // True if every rank's shard survives evicting `machines` (primary or
  // cross-group backup still on a serving machine).
  bool CanRestoreAfterEviction(const std::vector<MachineId>& machines) const;

  // Per-save latency until durability (D2H + serialization pipeline).
  SimDuration SaveLatency() const;

  std::int64_t saves_started() const { return saves_started_; }
  std::int64_t saves_completed() const {
    DrainCompletedSaves();
    return saves_completed_;
  }
  int in_flight() const {
    DrainCompletedSaves();
    return static_cast<int>(in_flight_.size());
  }

  const CkptManagerConfig& config() const { return config_; }

 private:
  struct PendingSave {
    std::int64_t step;
    SimTime complete_time;
  };

  // Step observer: saves never act on anything, so every run is absorbed;
  // each save step drains and starts saves at its own end time.
  std::int64_t Horizon(const StepRun&) const override { return kUnbounded; }
  void OnRun(const StepRun& run) override;
  // Saves become durable in FIFO order at a deterministic latency, so instead
  // of scheduling one simulator event per save (which would cap step runs at
  // the save latency and cost O(steps) event traffic), completed saves are
  // folded into durable_step_ lazily, at the current simulated time for
  // queries and at each save step's end time while a run is absorbed.
  void DrainCompletedSaves() const { DrainCompletedSaves(sim_->Now()); }
  void DrainCompletedSaves(SimTime now) const;

  CkptManagerConfig config_;
  Simulator* sim_;
  TrainJob* job_;
  // Frozen campaign template: shared, immutable per parallelism config.
  std::shared_ptr<const BackupPlan> backup_plan_;
  SimDuration save_latency_ = 0;
  mutable std::int64_t durable_step_ = -1;
  std::int64_t saves_started_ = 0;
  mutable std::int64_t saves_completed_ = 0;
  // Dual buffer: at most two saves in flight; older saves must finish first.
  mutable std::deque<PendingSave> in_flight_;
};

}  // namespace byterobust

#endif  // SRC_CKPT_CKPT_MANAGER_H_
