// The named scenario / fleet-scenario registries and the per-seed runners
// behind them, shared by the byterobust CLI subcommands and the serve daemon.
// BuildCampaignEngineSpec turns one validated campaign/fleet request into a
// self-contained CampaignEngineSpec (lambdas capture by value), so the CLI
// and every serve request produce byte-identical documents from the same
// parameters.

#ifndef SRC_CAMPAIGN_SCENARIOS_H_
#define SRC_CAMPAIGN_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/campaign/engine.h"
#include "src/campaign/json_writer.h"
#include "src/core/scenario.h"
#include "src/faults/domain_injector.h"
#include "src/fleet/fleet.h"
#include "src/metrics/domain_blast.h"

namespace byterobust {

// ---------------------------------------------------------------------------
// Named scenarios.
// ---------------------------------------------------------------------------
struct ScenarioSpec {
  const char* name;
  const char* summary;
  bool targeted;                  // single-symptom campaign vs full mix
  IncidentSymptom symptom;        // targeted only
  double default_days;
  // Correlated fault-domain campaigns: when set, the scenario's dominant
  // stream is a Poisson process of *domain* faults of this kind over the
  // hierarchical topology graph (src/topology/fault_domains.h), with a sparse
  // background Table 1 mix underneath.
  bool domain = false;
  DomainFaultKind domain_kind = DomainFaultKind::kSpineFlap;
};

const std::vector<ScenarioSpec>& Specs();
const ScenarioSpec* FindSpec(const std::string& name);

// Named fleet scenarios (multi-job, shared spare pool; see src/fleet).
struct FleetSpec {
  const char* name;
  const char* summary;
  FleetConfig (*make)(double days, std::uint64_t seed);
  double default_days;
};

const std::vector<FleetSpec>& FleetSpecs();
const FleetSpec* FindFleetSpec(const std::string& name);

// ---------------------------------------------------------------------------
// One campaign run -> metrics.
// ---------------------------------------------------------------------------
struct LatencyStats {
  double mean_s = 0.0;
  double max_s = 0.0;
  int count = 0;
};

struct RunResult {
  std::string scenario;
  std::uint64_t seed = 0;
  double days = 0.0;
  int machines = 0;
  int world_size = 0;
  std::int64_t steps = 0;
  int runs = 0;
  int evictions = 0;
  int incidents_injected = 0;
  int incidents_resolved = 0;
  int refails = 0;
  int updates_submitted = 0;
  double ettr_cumulative = 0.0;
  double productive_s = 0.0;
  double recompute_s = 0.0;
  double final_mfu = 0.0;
  LatencyStats detection;
  LatencyStats localization;
  LatencyStats failover;
  LatencyStats resolution;  // total unproductive time per incident
  double was_byterobust_s = 0.0;
  double was_requeue_s = 0.0;
  std::map<std::string, int> mechanisms;
  int domain_faults_injected = 0;
  DomainBlastStats domain_blast;  // empty unless the scenario injects domain faults
};

// The config one scenario seed runs: the simulated system (seed, campaign
// metric retention), duration and, for mixed scenarios, the fault streams.
// Targeted scenarios use only .system and .duration.
ScenarioConfig BuildScenarioConfig(const ScenarioSpec& spec, double days, std::uint64_t seed);

// Runs one scenario seed from a given config (seed = cfg.system.seed). Tests
// flip the config's reference-path fields here (job.batched_stepping,
// monitor.quiescent, metrics_retention); the rendered run must not change.
RunResult RunScenarioConfig(const ScenarioSpec& spec, double days, const ScenarioConfig& cfg);

// Runs one scenario seed (targeted or mixed) to a RunResult:
// RunScenarioConfig on BuildScenarioConfig(spec, days, seed).
RunResult RunOne(const ScenarioSpec& spec, double days, std::uint64_t seed);

// Renders one RunResult as a JSON object at the writer's current position
// (the `run` subcommand's "result" block, and each "runs" array element).
void WriteRun(JsonWriter* w, const RunResult& r);

// Header fields shared by every seed-campaign document (campaign and fleet).
void WriteRunSetHeaderFields(JsonWriter* w, const char* command, const char* scenario,
                             int seeds, std::uint64_t base_seed, double days);

// ---------------------------------------------------------------------------
// One validated request -> a self-contained engine spec.
// ---------------------------------------------------------------------------

// The parameters a campaign or fleet run is a pure function of: same request
// body + base seed -> byte-identical document, whatever the transport (CLI
// flags or a serve request line) and whatever --jobs is.
struct CampaignRequest {
  std::string command;  // "campaign" or "fleet"
  std::string scenario;
  int seeds = 4;
  std::uint64_t base_seed = 42;
  double days = -1.0;  // < 0: use the scenario default
  int jobs = 1;
  bool stream = false;
  std::string out_path;
  std::string journal_path;
  std::string resume_path;
  int retries = -1;  // < 0 keeps the default (2)
  bool journal_sync = false;
};

// Resolves the request against the registries and fills *spec (run_seed /
// header_fields / aggregates capture by value — the spec outlives the
// request). On a bad scenario name or seed count, fills *error (no "error: "
// prefix) and returns false without touching *spec's callbacks.
bool BuildCampaignEngineSpec(const CampaignRequest& req, CampaignEngineSpec* spec,
                             std::string* error);

}  // namespace byterobust

#endif  // SRC_CAMPAIGN_SCENARIOS_H_
