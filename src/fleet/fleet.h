// Fleet mode (PR 5): N concurrent training jobs on one shared simulator and
// machine pool, each with its own Monitor / Diagnoser / Controller /
// CkptManager stack and fault-scenario driver, arbitrated by a shared
// spare-pool (src/fleet/spare_arbiter.h).
//
// The fleet also owns the cross-job fault surface the single-job path cannot
// express: a ToR switch-storm generator takes out a contiguous band of
// machines that may serve several jobs at once (the per-storm *blast radius*
// is the number of jobs hit), and every recovery claims spares from the same
// contended pool.
//
// Threading model: one Fleet (all N jobs, the shared simulator, the arbiter)
// belongs to a single campaign worker thread; "concurrent jobs" are
// interleaved deterministically by the discrete-event simulator, not by OS
// threads. Cross-seed parallelism happens strictly above this layer in the
// CLI worker pool, which shares nothing mutable between seeds.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/fleet/spare_arbiter.h"

namespace byterobust {

// One job of the fleet. `scenario.system` carries the full per-job stack
// configuration (job shape, monitor/diagnoser/controller tuning, seed); the
// rest of `scenario` drives that job's fault mix and code evolution.
struct FleetJobSpec {
  std::string name = "job";
  ScenarioConfig scenario;
  // Higher values matter more: spare claims may preempt strictly
  // lower-priority jobs.
  int priority = 0;
  // When the job launches on the fleet (its machines are reserved from t=0).
  SimDuration start_time = 0;
};

// ToR switch-storm generator configuration (0 mean gap disables it).
struct SwitchStormConfig {
  SimDuration mean_gap = 0;
  // Fraction of storms that self-heal (before the controller's network
  // debounce elapses) vs persistent switch faults requiring eviction.
  double transient_fraction = 0.5;
};

struct FleetConfig {
  std::vector<FleetJobSpec> jobs;
  // Idle machines in the shared pool beyond the jobs' aggregate demand.
  int shared_spares = 4;
  SpareArbiterConfig arbiter;
  SwitchStormConfig storm;
  // Hierarchical fault-domain graph attached to the shared pool (and thereby
  // every job view). Storm bands are the graph's ToR domains.
  FaultDomainConfig fault_domains;
  SimDuration duration = Days(1);
  // Seeds the fleet-level generators (storm placement); per-job seeds live in
  // each job's system config.
  std::uint64_t seed = 42;
};

// Time-weighted summary of the spare-pool occupancy timeline.
struct SpareOccupancySummary {
  double mean_ready = 0.0;  // time-weighted over [0, duration]
  int min_ready = 0;
  int max_ready = 0;
  int samples = 0;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Runs every job's campaign on the shared simulator to config.duration.
  void Run();

  const FleetConfig& config() const { return config_; }
  int num_jobs() const { return static_cast<int>(systems_.size()); }
  const FleetJobSpec& spec(int i) const { return config_.jobs.at(static_cast<std::size_t>(i)); }
  ByteRobustSystem& system(int i) { return *systems_.at(static_cast<std::size_t>(i)); }
  Scenario& scenario(int i) { return *scenarios_.at(static_cast<std::size_t>(i)); }
  SpareArbiter& arbiter() { return *arbiter_; }
  Cluster& pool() { return *pool_; }
  Simulator& sim() { return sim_; }

  // -- fleet-level metrics ---------------------------------------------------

  int storms_injected() const { return storms_injected_; }
  // Per-storm blast radius (number of jobs hit) -> storm count.
  const std::map<int, int>& blast_radius_counts() const { return blast_radius_counts_; }
  // Per-domain blast accounting: one ToR event per switch storm (empty when
  // the fleet runs no storm stream).
  const DomainBlastStats& domain_blast() const { return domain_blast_; }
  // Storms that degraded machines of two or more jobs at once.
  int cross_job_storms() const;

  // Aggregate effective-GPU-time ratio: per-job productive time weighted by
  // world size, over each job's scheduled span (start_time .. duration).
  double EffectiveGpuTimeRatio() const;

  SpareOccupancySummary OccupancySummary() const;

 private:
  void ScheduleNextStorm();
  void InjectStorm();

  FleetConfig config_;
  Simulator sim_;
  std::unique_ptr<Cluster> pool_;
  std::unique_ptr<SpareArbiter> arbiter_;
  std::vector<std::unique_ptr<ByteRobustSystem>> systems_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  Rng storm_rng_;
  std::uint64_t next_storm_id_ = 1;
  int storms_injected_ = 0;
  std::map<int, int> blast_radius_counts_;
  DomainBlastStats domain_blast_;
};

}  // namespace byterobust

#endif  // SRC_FLEET_FLEET_H_
