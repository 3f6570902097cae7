// Production-style campaign: a multi-week pretraining job on 9,600 GPUs with
// the paper's fault mix, continuous code evolution through hot updates, and
// the full ByteRobust stack keeping ETTR high (Sec. 8.1).
//
// Build & run:  ./build/examples/ettr_campaign [days]

#include <cstdio>
#include <cstdlib>

#include "src/core/production_presets.h"

using namespace byterobust;

int main(int argc, char** argv) {
  const double days = argc > 1 ? std::atof(argv[1]) : 14.0;
  ScenarioConfig config = DenseCampaignConfig(days, /*seed=*/91);
  const JobConfig& job = config.system.job;
  std::printf("running %.0f-day campaign: %s (%.0fB, %s)\n", days, job.name.c_str(),
              job.model_params_b, job.parallelism.ToString().c_str());
  std::printf("fault process: one infrastructure/implicit incident every ~%.1f h at this scale\n",
              ToHours(FaultInjectorConfig{}.reference_mtbf) * 2048.0 /
                  config.system.job.parallelism.num_machines());

  Scenario scenario(config);
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();

  std::printf("\n== campaign summary ==\n");
  std::printf("incidents injected : %d (+ %d engineering updates, %d with latent bugs)\n",
              scenario.stats().incidents_injected, scenario.stats().updates_submitted,
              scenario.stats().buggy_updates);
  std::printf("training runs      : %d\n", sys.job().run_count());
  std::printf("steps completed    : %lld\n",
              static_cast<long long>(sys.job().max_step_reached()));
  std::printf("machines evicted   : %d\n", sys.controller().evictions_total());
  std::printf("cumulative ETTR    : %.3f  (paper: up to 0.97)\n",
              sys.ettr().CumulativeEttr(sys.sim().Now()));
  std::printf("recompute overhead : %s\n", FormatDuration(sys.ettr().recompute_time()).c_str());

  const double min_mfu =
      sys.mfu_series().samples().empty() ? 1.0 : sys.mfu_series().samples().front().mfu;
  const double max_mfu = sys.mfu_series().MaxMfu();
  std::printf("relative MFU gain  : %.2fx (hot updates raised MFU from %.2f to %.2f)\n",
              max_mfu / min_mfu, min_mfu, max_mfu);

  std::printf("\nresolved incidents by mechanism:\n");
  const ResolutionLog& log = sys.controller().log();
  for (ResolutionMechanism mech :
       {ResolutionMechanism::kAutoFtEvictRestart, ResolutionMechanism::kAutoFtHotUpdate,
        ResolutionMechanism::kAnalyzerEvictRestart, ResolutionMechanism::kRollback,
        ResolutionMechanism::kReattempt, ResolutionMechanism::kDualPhaseReplay,
        ResolutionMechanism::kUnresolvedHuman}) {
    const int n = log.CountBy(mech);
    if (n > 0) {
      std::printf("  %-18s %d\n", MechanismName(mech), n);
    }
  }

  std::printf("\nsliding-window ETTR (1 h window) across the campaign:\n");
  const SimTime end = sys.sim().Now();
  for (int pct = 10; pct <= 100; pct += 10) {
    const SimTime t = end / 100 * pct;
    const double sliding = sys.ettr().SlidingEttr(t, Hours(1));
    const int bars = static_cast<int>(sliding * 50.0);
    std::printf("  %3d%% |%-50.*s| %.2f\n", pct, bars,
                "##################################################", sliding);
  }
  return 0;
}
