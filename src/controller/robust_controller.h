// Robust Controller: the control-plane brain orchestrating the automated
// fault-tolerance framework of Fig. 5.
//
// Routing on a fresh anomaly:
//   - high-confidence machine signals  -> evict + restart         (step 1)
//   - user-space errors traceable from logs -> code rollback      (step 2)
//   - crashes / NaN without a culprit  -> stop-time checks        (step 3)
//       suspects  -> evict + restart                              (step 4)
//       clean     -> reattempt (transient assumption)             (step 5)
//   - hang / MFU decline -> aggregation analysis, over-evict      (Sec. 5)
// Escalation when the failure recurs after a restart:
//   evict -> stop-time checks -> reattempt -> rollback            (steps 6/7)
//   -> dual-phase replay -> evict suspects                        (steps 8/9)
//   -> no conclusion: hand to humans.

#ifndef SRC_CONTROLLER_ROBUST_CONTROLLER_H_
#define SRC_CONTROLLER_ROBUST_CONTROLLER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "src/analyzer/aggregation.h"
#include "src/ckpt/ckpt_manager.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/diagnoser/diagnoser.h"
#include "src/faults/incident.h"
#include "src/metrics/resolution.h"
#include "src/monitor/monitor.h"
#include "src/recovery/hot_update.h"
#include "src/recovery/restart_model.h"
#include "src/recovery/warm_standby.h"
#include "src/replay/dual_phase_replay.h"
#include "src/sim/simulator.h"
#include "src/tracer/stack_synth.h"
#include "src/training/train_job.h"

namespace byterobust {

struct ControllerConfig {
  // Network alerts tolerated before eviction (some NIC/switch flaps
  // self-recover, Sec. 4.1); checked again after this hold-off.
  SimDuration network_debounce = Seconds(150);

  // Packet-loss rate above which the post-debounce recheck still considers a
  // machine network-faulty. Defaults to the monitor's alert threshold so
  // detection and the recheck agree on what "healed" means.
  double debounce_packet_loss_threshold = 0.1;

  // A restart that survives this long without a recurring anomaly closes the
  // episode as resolved. Must exceed the slowest re-detection path (hang
  // grace + watchdog + detection latency), otherwise recurring failures look
  // like fresh episodes and the Fig. 5 escalation ladder never engages.
  SimDuration stable_window = Minutes(20);

  // Probability that log/exit-code analysis traces a user-code failure to a
  // specific module (triggering direct rollback, Fig. 5 step 2).
  double log_attribution_recall = 0.8;

  // On-demand tracer capture + aggregation analysis latency.
  SimDuration aggregation_latency = Seconds(30);

  // Fail-slow voting (Sec. 5.1): aggregation repeats at this interval for
  // this many rounds before the degrader group is over-evicted.
  SimDuration failslow_round_interval = Seconds(10);
  int failslow_rounds = 5;

  // Dual-phase replay parameters.
  SimDuration replay_duration = Minutes(10);
  double replay_reproduce_prob = 0.75;

  // Load checkpoints from CPU-memory/local backups (ByteRobust) or from the
  // remote filesystem (prior practice).
  bool local_checkpoint_restore = true;

  RestartCostModel restart_costs;
};

class RobustController {
 public:
  RobustController(const ControllerConfig& config, Simulator* sim, Cluster* cluster,
                   TrainJob* job, Monitor* monitor, Diagnoser* diagnoser,
                   SparePool* standby_pool, HotUpdateManager* hot_updates,
                   CheckpointManager* ckpt, Rng rng);

  RobustController(const RobustController&) = delete;
  RobustController& operator=(const RobustController&) = delete;

  // Hooks the monitor and the hot-update manager, then starts them.
  void Start();

  // Ground-truth plumbing from the scenario runner: registers the incident a
  // following anomaly should be attributed to.
  void NotifyIncidentInjected(const Incident& incident);

  // Invoked after every job restart with the mechanism that drove it (the
  // scenario runner uses this to re-apply persisting faults and to resolve
  // code-rollback ground truth).
  using RestartListener = std::function<void(ResolutionMechanism)>;
  void SetRestartListener(RestartListener listener) { restart_listener_ = std::move(listener); }

  // Manual code/data adjustment entry point (urgent update or window expiry).
  void RequestHotUpdateRestart();

  const ResolutionLog& log() const { return log_; }
  int evictions_total() const { return evictions_total_; }
  int episodes_open() const { return episode_.has_value() ? 1 : 0; }

 private:
  struct Episode {
    Incident incident;                    // best-known ground truth
    AnomalySource first_source;
    IncidentSymptom first_symptom;
    SimTime detect_time = 0;
    SimTime localize_done_time = 0;
    int escalation = 0;                   // Fig. 5 stages traversed
    ResolutionMechanism last_mechanism = ResolutionMechanism::kAutoFtEvictRestart;
    SimTime last_restart_time = 0;
    bool restart_in_progress = false;
    // Network debounce hold-off in flight: sibling alerts (a flapping spine
    // degrades every machine beneath it in the same inspection pass) fold
    // into `debounce_machines` instead of escalating, so one correlated
    // network event is handled as one episode covering its whole blast
    // radius.
    bool debounce_pending = false;
    std::vector<MachineId> debounce_machines;
    bool tried_eviction = false;
    bool tried_stop_time = false;
    bool tried_reattempt = false;
    bool tried_rollback = false;
    bool tried_replay = false;
  };

  void OnAnomaly(const AnomalyReport& report);
  void RouteFresh(const AnomalyReport& report);
  void Escalate(const AnomalyReport& report);
  void RecheckNetworkDebounce();

  // Fig. 5 actions. Each consumes `localization` sim-time before restarting.
  void EvictAndRestart(std::vector<MachineId> machines, ResolutionMechanism mechanism,
                       SimDuration localization);
  void ReattemptRestart(SimDuration localization);
  void RollbackRestart(SimDuration localization);
  void RunStopTimeChecks(bool nan_suite);
  void RunAggregationAnalysis();
  void RunFailSlowVoting(int round, std::shared_ptr<FailSlowVoter> voter);
  void RunDualPhaseReplay();
  void GiveUpToHumans();

  // Restart plumbing shared by every action.
  void RestartJob(SimDuration failover, ResolutionMechanism mechanism);
  void FinishRestart(ResolutionMechanism mechanism);
  void ScheduleStabilityCheck();
  void CloseEpisode(bool resolved);

  Incident TakeGroundTruth(const AnomalyReport& report);

  ControllerConfig config_;
  Simulator* sim_;
  Cluster* cluster_;
  TrainJob* job_;
  Monitor* monitor_;
  Diagnoser* diagnoser_;
  SparePool* standby_pool_;
  HotUpdateManager* hot_updates_;
  CheckpointManager* ckpt_;
  Rng rng_;
  AggregationAnalyzer analyzer_;

  RestartListener restart_listener_;
  std::deque<Incident> pending_incidents_;  // injected, not yet attributed
  std::optional<Episode> episode_;
  ResolutionLog log_;
  int evictions_total_ = 0;
  std::uint64_t stability_epoch_ = 0;  // invalidates stale stability checks
};

}  // namespace byterobust

#endif  // SRC_CONTROLLER_ROBUST_CONTROLLER_H_
