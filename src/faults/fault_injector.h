// Stochastic fault injector.
//
// Generates incidents whose symptom mix follows the paper's production
// distribution (Table 1), whose root causes follow Table 2, and whose
// inter-arrival times follow an exponential clock scaled to cluster size
// (failures in large-scale training are independent single-node events,
// Sec. 6.2; Meta reports one hardware failure every 2.78 h at 16k GPUs).

#ifndef SRC_FAULTS_FAULT_INJECTOR_H_
#define SRC_FAULTS_FAULT_INJECTOR_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/faults/incident.h"

namespace byterobust {

struct FaultInjectorConfig {
  // Mean time between *infrastructure/implicit* incidents for a reference
  // cluster of `reference_machines`. 2.78 h at 2048 machines mirrors the
  // Llama-3 observation cited in the paper.
  SimDuration reference_mtbf = Hours(2.78);
  int reference_machines = 2048;

  bool include_manual_restarts = true;

  // Probability that an infrastructure-caused network/storage symptom is
  // transient (self-healing; resolved by plain reattempt, Sec. 4.2). The
  // Sec. 4.2 lesson attributes 22.7% of failures to reattempt-recoverable
  // transients.
  double transient_fraction = 0.45;

  // Scale on Table 2's per-symptom user-code probabilities. Table 2 samples
  // only three symptom classes on >2000-GPU jobs; campaign-wide, rollbacks
  // resolve just 6.9-11.2% of incidents (Table 4), implying a much smaller
  // user-code share across the full Table 1 mix.
  double user_code_scale = 0.22;

  // Probability that a NaN incident with an infrastructure root is an SDC
  // (vs. a reproducible hardware fault). Table 2 shows 3 of 4 NaN incidents
  // were infrastructure; Sec. 9 describes SDC as their dominant mechanism.
  double nan_sdc_fraction = 1.0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultInjectorConfig& config, Rng rng);

  // Scaled MTBF for a cluster of `num_machines` (failure rate is proportional
  // to machine count).
  SimDuration MtbfFor(int num_machines) const;

  // Draws the delay until the next infrastructure/implicit incident.
  SimDuration NextFailureDelay(int num_machines);

  // Samples a failure incident (explicit or implicit, never manual) striking
  // one of `serving` machines.
  Incident SampleFailure(SimTime now, const std::vector<MachineId>& serving);

  // Builds a manual-restart incident.
  Incident SampleManualRestart(SimTime now);

  // Mutates cluster health state so that monitors/diagnosers can observe the
  // incident. User-code and manual incidents leave machines untouched.
  static void ApplyToCluster(const Incident& incident, Cluster* cluster);

  // Clears the health flags that `incident` set (post-repair or when a
  // transient fault self-heals).
  static void ClearFromCluster(const Incident& incident, Cluster* cluster);

  std::uint64_t incidents_generated() const { return next_incident_id_ - 1; }

 private:
  RootCause SampleRootCause(IncidentSymptom symptom);

  FaultInjectorConfig config_;
  Rng rng_;
  std::vector<double> failure_weights_;  // Table 1 mix minus manual restarts
  std::vector<IncidentSymptom> failure_symptoms_;
  std::uint64_t next_incident_id_ = 1;
};

}  // namespace byterobust

#endif  // SRC_FAULTS_FAULT_INJECTOR_H_
