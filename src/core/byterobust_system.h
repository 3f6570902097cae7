// ByteRobust facade: wires the full control plane + data plane onto a
// simulated cluster and training job. This is the library's primary public
// entry point (see examples/quickstart.cc).
//
// Two wiring modes:
//   - self-contained (the classic single-job layout): the system owns its
//     Simulator, a root Cluster sized to the job plus exclusive spares, and a
//     per-job WarmStandbyPool;
//   - fleet member (src/fleet): the system runs on an externally owned
//     Simulator, carves its Cluster as a view of the shared fleet pool, and
//     draws spares from an external SparePool (the shared SpareArbiter's
//     per-job client) instead of an exclusive warm pool.

#ifndef SRC_CORE_BYTEROBUST_SYSTEM_H_
#define SRC_CORE_BYTEROBUST_SYSTEM_H_

#include <cstdint>
#include <memory>

#include "src/ckpt/ckpt_manager.h"
#include "src/cluster/cluster.h"
#include "src/controller/robust_controller.h"
#include "src/diagnoser/diagnoser.h"
#include "src/metrics/ettr.h"
#include "src/monitor/monitor.h"
#include "src/recovery/hot_update.h"
#include "src/recovery/warm_standby.h"
#include "src/sim/simulator.h"
#include "src/topology/fault_domains.h"
#include "src/training/train_job.h"

namespace byterobust {

struct SystemConfig {
  JobConfig job;
  MonitorConfig monitor;
  DiagnoserConfig diagnoser;
  StandbyConfig standby;
  HotUpdateConfig hot_update;
  CkptManagerConfig ckpt;
  ControllerConfig controller;
  std::uint64_t seed = 42;
  // Extra idle machines available beyond the job's demand (standby pool
  // candidates and reschedule headroom). Ignored in fleet wiring, where the
  // shared pool is sized by FleetConfig.
  int spare_machines = 8;
  // Hierarchical fault-domain graph attached to the owned root cluster
  // (self-contained wiring only; fleet members inherit the shared pool's
  // graph from FleetConfig). Attaching is inert until a domain fault stream
  // or injector actually impairs a domain.
  FaultDomainConfig fault_domains;
  // Trailing window for ETTR-span / MFU-sample compaction (0 = unbounded).
  // Campaigns set this so per-run metric memory stays O(window) instead of
  // O(steps); keep 0 when historical sliding-ETTR curves or the full MFU
  // series are needed (benches, figure exports).
  SimDuration metrics_retention = 0;
};

// A MonitorConfig tuned for multi-month campaign simulations: coarser
// inspection intervals keep the event count tractable while leaving detection
// latencies negligible at campaign scale. The Table 3 bench uses the default
// (production) intervals instead.
MonitorConfig CampaignMonitorConfig();

// External plumbing for a fleet-member system (see src/fleet/fleet.h). The
// pointed-to objects must outlive the system.
struct FleetMemberWiring {
  Simulator* sim = nullptr;
  Cluster* pool = nullptr;       // shared fleet pool; the job view is carved from it
  SparePool* spares = nullptr;   // shared-arbiter client for this job
  SimTime ettr_origin = 0;       // campaign start for this job's ETTR clock
};

class ByteRobustSystem : private StepObserver {
 public:
  explicit ByteRobustSystem(const SystemConfig& config);

  // Fleet-member wiring: shared simulator + machine pool + spare supplier.
  ByteRobustSystem(const SystemConfig& config, const FleetMemberWiring& wiring);

  ByteRobustSystem(const ByteRobustSystem&) = delete;
  ByteRobustSystem& operator=(const ByteRobustSystem&) = delete;

  // Starts the controller (which starts the monitor and pre-provisions the
  // warm standby pool) and launches the training job.
  void Start();

  Simulator& sim() { return *sim_; }
  Cluster& cluster() { return *cluster_; }
  TrainJob& job() { return *job_; }
  Monitor& monitor() { return *monitor_; }
  Diagnoser& diagnoser() { return *diagnoser_; }
  // Only valid in self-contained wiring (fleet members draw from the shared
  // arbiter instead).
  WarmStandbyPool& standby_pool() { return *standby_pool_; }
  SparePool& spares() { return *spares_; }
  HotUpdateManager& hot_updates() { return *hot_updates_; }
  CheckpointManager& ckpt() { return *ckpt_; }
  RobustController& controller() { return *controller_; }
  EttrTracker& ettr() { return *ettr_; }
  MfuSeries& mfu_series() { return mfu_series_; }

  const SystemConfig& config() const { return config_; }

 private:
  void WireComponents(SimTime ettr_origin);

  // Step observer feeding the ETTR tracker and MFU series, which take any run.
  std::int64_t Horizon(const StepRun&) const override { return kUnbounded; }
  void OnRun(const StepRun& run) override;

  SystemConfig config_;
  std::unique_ptr<Simulator> owned_sim_;
  Simulator* sim_ = nullptr;
  std::unique_ptr<Cluster> cluster_;
  SparePool* spares_ = nullptr;
  std::unique_ptr<TrainJob> job_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<Diagnoser> diagnoser_;
  std::unique_ptr<WarmStandbyPool> standby_pool_;
  std::unique_ptr<HotUpdateManager> hot_updates_;
  std::unique_ptr<CheckpointManager> ckpt_;
  std::unique_ptr<RobustController> controller_;
  std::unique_ptr<EttrTracker> ettr_;
  MfuSeries mfu_series_;
};

}  // namespace byterobust

#endif  // SRC_CORE_BYTEROBUST_SYSTEM_H_
