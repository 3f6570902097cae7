#include "src/core/byterobust_system.h"

namespace byterobust {

MonitorConfig CampaignMonitorConfig() {
  MonitorConfig cfg;
  cfg.intervals.network = Seconds(60);
  cfg.intervals.gpu = Seconds(60);
  cfg.intervals.host = Seconds(60);
  cfg.watchdog_interval = Seconds(60);
  return cfg;
}

ByteRobustSystem::ByteRobustSystem(const SystemConfig& config) : config_(config) {
  owned_sim_ = std::make_unique<Simulator>();
  sim_ = owned_sim_.get();
  cluster_ = std::make_unique<Cluster>(config.job.parallelism.num_machines(),
                                       config.job.parallelism.gpus_per_machine,
                                       config.spare_machines);
  cluster_->AttachFaultDomains(config.fault_domains);
  standby_pool_ = std::make_unique<WarmStandbyPool>(config.standby, sim_, cluster_.get());
  spares_ = standby_pool_.get();
  WireComponents(/*ettr_origin=*/0);
}

ByteRobustSystem::ByteRobustSystem(const SystemConfig& config, const FleetMemberWiring& wiring)
    : config_(config) {
  sim_ = wiring.sim;
  cluster_ = std::make_unique<Cluster>(*wiring.pool, config.job.parallelism.num_machines());
  spares_ = wiring.spares;
  WireComponents(wiring.ettr_origin);
}

void ByteRobustSystem::WireComponents(SimTime ettr_origin) {
  Rng root(config_.seed);
  job_ = std::make_unique<TrainJob>(config_.job, sim_, cluster_.get(), root.Fork().engine()());
  monitor_ = std::make_unique<Monitor>(config_.monitor, sim_, cluster_.get(), job_.get());
  diagnoser_ = std::make_unique<Diagnoser>(config_.diagnoser, root.Fork());
  hot_updates_ = std::make_unique<HotUpdateManager>(config_.hot_update, sim_);
  ckpt_ = std::make_unique<CheckpointManager>(config_.ckpt, sim_, job_.get());
  controller_ = std::make_unique<RobustController>(
      config_.controller, sim_, cluster_.get(), job_.get(), monitor_.get(), diagnoser_.get(),
      spares_, hot_updates_.get(), ckpt_.get(), root.Fork());
  ettr_ = std::make_unique<EttrTracker>(ettr_origin, config_.metrics_retention);
  mfu_series_.SetRetention(config_.metrics_retention);
  job_->AddStepObserver(this);
}

void ByteRobustSystem::OnRun(const StepRun& run) {
  ettr_->OnRun(run);
  mfu_series_.OnRun(run);
}

void ByteRobustSystem::Start() {
  controller_->Start();
  job_->Start();
}

}  // namespace byterobust
