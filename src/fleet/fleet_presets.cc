#include "src/fleet/fleet_presets.h"

#include "src/core/byterobust_system.h"

namespace byterobust {

namespace {

// SplitMix64: decorrelates per-job seeds from the fleet base seed so sibling
// jobs never share fault/update streams.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// A fleet-member job: quickstart-class machines (2 GPUs each) so multi-job
// campaigns stay fast, with the standard accelerated fault clock.
FleetJobSpec MakeJob(const char* name, int tp, int pp, int dp, int priority,
                     SimDuration start_time, std::uint64_t seed, int job_index) {
  FleetJobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.start_time = start_time;
  SystemConfig& sys = spec.scenario.system;
  sys.job.name = name;
  sys.job.model_params_b = 7.0 * pp;
  sys.job.parallelism.tp = tp;
  sys.job.parallelism.pp = pp;
  sys.job.parallelism.dp = dp;
  sys.job.parallelism.gpus_per_machine = 2;
  sys.job.base_step_time = Seconds(10);
  sys.monitor = CampaignMonitorConfig();
  sys.seed = MixSeed(seed + static_cast<std::uint64_t>(job_index) * 0x51ED270BULL);
  spec.scenario.injector.reference_mtbf = Hours(1.0);
  spec.scenario.injector.reference_machines = 64;
  spec.scenario.planned_updates = 2;
  return spec;
}

void ApplyCommon(FleetConfig* cfg, double days, std::uint64_t seed) {
  cfg->duration = Days(days);
  cfg->seed = seed;
  for (FleetJobSpec& spec : cfg->jobs) {
    spec.scenario.duration = cfg->duration;  // Fleet re-clips per start time
  }
}

}  // namespace

FleetConfig FleetMixedConfig(double days, std::uint64_t seed) {
  FleetConfig cfg;
  // A production-priority 32-machine job, a mid-tier 16-machine job arriving
  // two hours in, and a low-priority 4-machine experiment arriving at hour 6.
  cfg.jobs.push_back(MakeJob("prod-70b", 2, 4, 8, /*priority=*/2, 0, seed, 0));
  cfg.jobs.push_back(MakeJob("mid-30b", 2, 4, 4, /*priority=*/1, Hours(2), seed, 1));
  cfg.jobs.push_back(MakeJob("exp-7b", 2, 2, 2, /*priority=*/0, Hours(6), seed, 2));
  cfg.shared_spares = 4;
  ApplyCommon(&cfg, days, seed);
  return cfg;
}

FleetConfig FleetContentionConfig(double days, std::uint64_t seed) {
  FleetConfig cfg;
  cfg.jobs.push_back(MakeJob("tier0-imm", 2, 4, 4, /*priority=*/3, 0, seed, 0));
  cfg.jobs.push_back(MakeJob("tier1-a", 2, 2, 4, /*priority=*/2, 0, seed, 1));
  cfg.jobs.push_back(MakeJob("tier1-b", 2, 2, 4, /*priority=*/1, Hours(1), seed, 2));
  cfg.jobs.push_back(MakeJob("tier2-exp", 2, 2, 2, /*priority=*/0, Hours(2), seed, 3));
  // One shared spare against four jobs under a 4x-accelerated fault clock:
  // simultaneous recoveries must contend, so claims preempt and queue.
  cfg.shared_spares = 1;
  for (FleetJobSpec& spec : cfg.jobs) {
    spec.scenario.injector.reference_mtbf = Minutes(15);
  }
  ApplyCommon(&cfg, days, seed);
  return cfg;
}

FleetConfig FleetSwitchStormConfig(double days, std::uint64_t seed) {
  FleetConfig cfg;
  // Two rack-adjacent 16-machine jobs under 6-machine ToR bands: band
  // [12, 18) straddles the allocation boundary at machine 16, so storms
  // landing there degrade machines of both jobs at once.
  cfg.jobs.push_back(MakeJob("rack-a", 2, 4, 4, /*priority=*/1, 0, seed, 0));
  cfg.jobs.push_back(MakeJob("rack-b", 2, 4, 4, /*priority=*/0, 0, seed, 1));
  cfg.shared_spares = 3;
  cfg.storm.mean_gap = Hours(1.5);
  cfg.storm.transient_fraction = 0.5;
  cfg.fault_domains.machines_per_tor = 6;
  for (FleetJobSpec& spec : cfg.jobs) {
    // Storms dominate; keep the per-job background mix sparse, and let
    // transient storms self-heal before the 150 s network debounce expires.
    spec.scenario.injector.reference_mtbf = Hours(4.0);
    spec.scenario.transient_heal = Minutes(2);
  }
  ApplyCommon(&cfg, days, seed);
  return cfg;
}

}  // namespace byterobust
