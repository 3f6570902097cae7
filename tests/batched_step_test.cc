// Step-run equivalence suite: step runs (JobConfig::batched_stepping, the
// default) must be observationally indistinguishable from the per-step
// reference path — identical StepRecord streams, identical anomaly detect
// times, identical checkpoint and campaign metrics — while dispatching
// strictly fewer simulator events. Targeted cases land incidents exactly on
// the steps where runs split (a checkpoint save, an MFU-decline alert, the
// recompute boundary after a rollback) and break the loss bound that lets the
// spike rule absorb runs. Also covers the observers' closed forms against
// step-by-step feeding, the epoch-keyed perf-model cache and the sliding
// median against their full-scan references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "src/ckpt/ckpt_manager.h"
#include "src/common/rng.h"
#include "src/core/production_presets.h"
#include "src/core/scenario.h"
#include "src/faults/fault_injector.h"
#include "src/metrics/ettr.h"
#include "src/monitor/metrics_rules.h"
#include "src/monitor/monitor.h"
#include "src/training/train_job.h"

namespace byterobust {
namespace {

JobConfig SmallJob(bool batched) {
  JobConfig cfg;
  cfg.name = "batch-test";
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  cfg.batched_stepping = batched;
  return cfg;
}

bool SameRecord(const StepRecord& a, const StepRecord& b) {
  const bool loss_same = (std::isnan(a.loss) && std::isnan(b.loss)) || a.loss == b.loss;
  const bool grad_same =
      (std::isnan(a.grad_norm) && std::isnan(b.grad_norm)) || a.grad_norm == b.grad_norm;
  return a.step == b.step && a.start == b.start && a.end == b.end && a.mfu == b.mfu &&
         loss_same && grad_same && a.is_nan == b.is_nan && a.recompute == b.recompute &&
         a.run_id == b.run_id;
}

// Expands every step of every run it sees. With a horizon of one step each
// run is one step; an unbounded horizon leaves the runs as long as the other
// observers allow.
class StepRecorder final : public StepObserver {
 public:
  explicit StepRecorder(std::int64_t horizon = 1) : horizon_(horizon) {}

  std::int64_t Horizon(const StepRun&) const override { return horizon_; }
  void OnRun(const StepRun& run) override {
    longest_run = std::max(longest_run, run.count);
    for (std::int64_t i = 0; i < run.count; ++i) {
      records.push_back(run.Record(i));
    }
  }

  std::vector<StepRecord> records;
  std::int64_t longest_run = 0;

 private:
  std::int64_t horizon_;
};

struct StepStreamRun {
  std::vector<StepRecord> records;
  std::uint64_t dispatched = 0;
};

// A job alone with a periodic interfering event: batches must split exactly at
// the event boundaries and the records must not care.
StepStreamRun RunStepStream(bool batched) {
  Simulator sim;
  Cluster cluster(4, 2, 2);
  TrainJob job(SmallJob(batched), &sim, &cluster, 42);
  StepStreamRun out;
  StepRecorder recorder;
  job.AddStepObserver(&recorder);
  // Interfering events at a cadence coprime with the 10 s step time, one of
  // which degrades a machine mid-run (stretching later steps through the
  // epoch-invalidated perf cache) and one of which heals it.
  for (int i = 1; i <= 20; ++i) {
    sim.ScheduleAt(Seconds(37) * i, [] {});
  }
  sim.ScheduleAt(Seconds(205), [&cluster] {
    cluster.machine(1).gpu(0).clock_ratio = 0.5;
  });
  sim.ScheduleAt(Seconds(505), [&cluster] {
    cluster.machine(1).ResetHealth();
  });
  job.Start();
  sim.RunUntil(Seconds(700));
  out.records = recorder.records;
  out.dispatched = sim.events_dispatched();
  return out;
}

TEST(BatchedStepTest, StepStreamMatchesPerStepReference) {
  const StepStreamRun batched = RunStepStream(true);
  const StepStreamRun reference = RunStepStream(false);
  ASSERT_EQ(batched.records.size(), reference.records.size());
  ASSERT_FALSE(batched.records.empty());
  for (std::size_t i = 0; i < batched.records.size(); ++i) {
    EXPECT_TRUE(SameRecord(batched.records[i], reference.records[i])) << "step " << i;
  }
  // The whole point: batching elides step-completion events.
  EXPECT_LT(batched.dispatched, reference.dispatched);
}

TEST(BatchedStepTest, MidRunDegradeStretchesStepsIdentically) {
  const StepStreamRun batched = RunStepStream(true);
  // The 0.5x downclock at t=205 doubles step time until the heal at t=505.
  bool saw_slow = false;
  for (const StepRecord& r : batched.records) {
    if (r.start >= Seconds(205) && r.end <= Seconds(505)) {
      EXPECT_EQ(r.end - r.start, Seconds(20));
      saw_slow = true;
    }
  }
  EXPECT_TRUE(saw_slow);
}

ScenarioConfig CampaignConfig(std::uint64_t seed, bool batched) {
  ScenarioConfig cfg;
  cfg.system.job.name = "batch-equivalence-7B";
  cfg.system.job.model_params_b = 7.0;
  cfg.system.job.parallelism.tp = 2;
  cfg.system.job.parallelism.pp = 4;
  cfg.system.job.parallelism.dp = 4;
  cfg.system.job.parallelism.gpus_per_machine = 2;
  cfg.system.job.base_step_time = Seconds(10);
  cfg.system.job.batched_stepping = batched;
  cfg.system.seed = seed;
  cfg.system.spare_machines = 4;
  cfg.duration = Days(0.5);
  cfg.injector.reference_mtbf = Hours(1.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 2;
  return cfg;
}

struct CampaignObservables {
  int incidents = 0;
  int refails = 0;
  std::int64_t steps = 0;
  int runs = 0;
  int evictions = 0;
  double ettr = 0.0;
  SimDuration productive = 0;
  std::vector<SimDuration> detect_times;
  std::vector<SimDuration> total_times;

  bool operator==(const CampaignObservables&) const = default;
};

CampaignObservables RunCampaign(std::uint64_t seed, bool batched) {
  Scenario scenario(CampaignConfig(seed, batched));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  CampaignObservables obs;
  obs.incidents = scenario.stats().incidents_injected;
  obs.refails = scenario.stats().refails;
  obs.steps = sys.job().max_step_reached();
  obs.runs = sys.job().run_count();
  obs.evictions = sys.controller().evictions_total();
  obs.ettr = sys.ettr().CumulativeEttr(sys.sim().Now());
  obs.productive = sys.ettr().productive_time();
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    obs.detect_times.push_back(res.DetectionTime());
    obs.total_times.push_back(res.TotalUnproductive());
  }
  return obs;
}

// Full control-plane campaign (fault mix, monitor, diagnoser, restarts):
// every campaign metric — including per-incident anomaly detect times — must
// be identical with batching on and off.
TEST(BatchedStepTest, CampaignObservablesMatchPerStepReference) {
  for (const std::uint64_t seed : {2024ull, 7ull}) {
    const CampaignObservables batched = RunCampaign(seed, true);
    const CampaignObservables reference = RunCampaign(seed, false);
    EXPECT_EQ(batched, reference) << "seed " << seed;
    EXPECT_GT(batched.incidents, 0) << "campaign too quiet to be a meaningful check";
    EXPECT_FALSE(batched.detect_times.empty());
  }
}

// ---------------------------------------------------------------------------
// Incidents on run boundaries. A full control plane (monitor, controller,
// checkpoints, metrics) on a small job with a fixed 10 s step, plus scripted
// incidents at exact simulated times. Each case runs three ways: the
// per-step reference, step runs watched by a one-step-horizon recorder (every
// run one step), and step runs watched by an unbounded recorder (runs as long
// as the system's own observers allow).
// ---------------------------------------------------------------------------
struct ScriptedIncident {
  SimTime at = 0;
  IncidentSymptom symptom = IncidentSymptom::kCudaError;
  MachineId machine = 3;
  int gpu = 1;
};

struct SystemTrace {
  std::vector<StepRecord> records;
  std::vector<SimTime> detect_times;
  std::uint64_t reports = 0;
  SimDuration productive = 0;
  SimDuration recompute = 0;
  std::int64_t saves_started = 0;
  std::int64_t saves_completed = 0;
  std::int64_t durable_step = 0;
  std::vector<SimTime> sample_times;
  std::vector<double> sample_mfus;
  std::vector<double> sample_losses;
  std::int64_t samples_folded = 0;
  double mfu_sum = 0.0;
  double sliding_ettr = 0.0;
  std::size_t retained_spans = 0;
  std::int64_t spans_folded = 0;
  std::int64_t longest_run = 0;
  std::uint64_t dispatched = 0;
};

SystemConfig BoundaryCaseSystem(bool batched) {
  SystemConfig cfg;
  cfg.job.parallelism = {2, 4, 4, 2};
  cfg.job.base_step_time = Seconds(10);
  cfg.job.model_params_b = 0.7;
  cfg.job.batched_stepping = batched;
  cfg.seed = 11;
  cfg.spare_machines = 12;
  cfg.ckpt.save_every_steps = 3;
  cfg.monitor.hang_grace = Minutes(3);
  cfg.metrics_retention = Hours(1);
  return cfg;
}

void Inject(ByteRobustSystem* sys, const ScriptedIncident& scripted, std::uint64_t id) {
  Incident inc;
  inc.id = id;
  inc.symptom = scripted.symptom;
  inc.faulty_machines = {scripted.machine};
  inc.gpu_index = scripted.gpu;
  inc.inject_time = sys->sim().Now();
  FaultInjector::ApplyToCluster(inc, &sys->cluster());
  sys->controller().NotifyIncidentInjected(inc);
  switch (scripted.symptom) {  // the job-side effect, as Scenario applies it
    case IncidentSymptom::kMfuDecline:
      break;  // the perf model picks the throttled clock up
    case IncidentSymptom::kNanValue:
      sys->job().SetNanLoss(true);
      break;
    default:
      sys->job().Crash();
      break;
  }
}

SystemTrace RunBoundaryCase(bool batched, std::int64_t recorder_horizon,
                            const std::vector<ScriptedIncident>& script) {
  ByteRobustSystem sys(BoundaryCaseSystem(batched));
  StepRecorder recorder(recorder_horizon);
  sys.job().AddStepObserver(&recorder);
  for (std::size_t i = 0; i < script.size(); ++i) {
    sys.sim().ScheduleAt(script[i].at, [&sys, &script, i] { Inject(&sys, script[i], i + 1); });
  }
  sys.Start();
  sys.sim().RunUntil(Hours(3));
  SystemTrace trace;
  trace.records = recorder.records;
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    trace.detect_times.push_back(res.detect_time);
  }
  trace.reports = sys.monitor().reports_emitted();
  trace.productive = sys.ettr().productive_time();
  trace.recompute = sys.ettr().recompute_time();
  trace.saves_started = sys.ckpt().saves_started();
  trace.saves_completed = sys.ckpt().saves_completed();
  trace.durable_step = sys.ckpt().durable_step();
  for (const MfuSample& sample : sys.mfu_series().samples()) {
    trace.sample_times.push_back(sample.time);
    trace.sample_mfus.push_back(sample.mfu);
    trace.sample_losses.push_back(sample.loss);
  }
  trace.samples_folded = sys.mfu_series().samples_folded();
  trace.mfu_sum = sys.mfu_series().mfu_sum();
  trace.sliding_ettr = sys.ettr().SlidingEttr(sys.sim().Now(), Hours(1));
  trace.retained_spans = sys.ettr().retained_spans();
  trace.spans_folded = sys.ettr().spans_folded();
  trace.longest_run = recorder.longest_run;
  trace.dispatched = sys.sim().events_dispatched();
  return trace;
}

void ExpectSameTrace(const SystemTrace& actual, const SystemTrace& reference, const char* label) {
  ASSERT_EQ(actual.records.size(), reference.records.size()) << label;
  for (std::size_t i = 0; i < actual.records.size(); ++i) {
    ASSERT_TRUE(SameRecord(actual.records[i], reference.records[i])) << label << " record " << i;
  }
  EXPECT_EQ(actual.detect_times, reference.detect_times) << label;
  EXPECT_EQ(actual.reports, reference.reports) << label;
  EXPECT_EQ(actual.productive, reference.productive) << label;
  EXPECT_EQ(actual.recompute, reference.recompute) << label;
  EXPECT_EQ(actual.saves_started, reference.saves_started) << label;
  EXPECT_EQ(actual.saves_completed, reference.saves_completed) << label;
  EXPECT_EQ(actual.durable_step, reference.durable_step) << label;
  EXPECT_EQ(actual.sample_times, reference.sample_times) << label;
  EXPECT_EQ(actual.sample_mfus, reference.sample_mfus) << label;
  EXPECT_EQ(actual.samples_folded, reference.samples_folded) << label;
  EXPECT_EQ(actual.mfu_sum, reference.mfu_sum) << label;
  EXPECT_EQ(actual.sliding_ettr, reference.sliding_ettr) << label;
  EXPECT_EQ(actual.retained_spans, reference.retained_spans) << label;
  EXPECT_EQ(actual.spans_folded, reference.spans_folded) << label;
  ASSERT_EQ(actual.sample_losses.size(), reference.sample_losses.size()) << label;
  for (std::size_t i = 0; i < actual.sample_losses.size(); ++i) {
    const double a = actual.sample_losses[i];
    const double b = reference.sample_losses[i];
    ASSERT_TRUE((std::isnan(a) && std::isnan(b)) || a == b) << label << " sample " << i;
  }
}

// Runs the case all three ways and returns the reference trace.
SystemTrace ExpectBoundaryCaseMatches(const std::vector<ScriptedIncident>& script) {
  const SystemTrace reference = RunBoundaryCase(false, 1, script);
  const SystemTrace one_step = RunBoundaryCase(true, 1, script);
  const SystemTrace runs = RunBoundaryCase(true, StepObserver::kUnbounded, script);
  ExpectSameTrace(one_step, reference, "one-step recorder");
  ExpectSameTrace(runs, reference, "unbounded recorder");
  EXPECT_EQ(one_step.longest_run, 1);
  EXPECT_GT(runs.longest_run, 10) << "the system's observers should allow long runs";
  EXPECT_LT(runs.dispatched, reference.dispatched);
  return reference;
}

// Index of the first record ending at `t`, or -1.
std::ptrdiff_t RecordEndingAt(const std::vector<StepRecord>& records, SimTime t) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].end == t) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

TEST(StepRunBoundaryTest, CrashExactlyOnACheckpointSaveStep) {
  // The job starts at 0 with a 10 s step, so step 30 (a save step: every
  // third) ends at 310 s. The crash is scheduled first, so at 310 s it
  // dispatches ahead of that step's completion and the save never starts.
  const SystemTrace reference =
      ExpectBoundaryCaseMatches({{Seconds(310), IncidentSymptom::kCudaError}});
  const std::ptrdiff_t before = RecordEndingAt(reference.records, Seconds(300));
  ASSERT_GE(before, 0);
  EXPECT_EQ(reference.records[static_cast<std::size_t>(before)].step, 29);
  EXPECT_EQ(RecordEndingAt(reference.records, Seconds(310)), -1);
  EXPECT_EQ(30 % BoundaryCaseSystem(true).ckpt.save_every_steps, 0);
  ASSERT_FALSE(reference.detect_times.empty());
  EXPECT_GT(reference.recompute, 0) << "the restart should replay unsaved steps";
}

TEST(StepRunBoundaryTest, NanExactlyOnACheckpointSaveStep) {
  // The NaN input lands at 610 s, where step 60 (a save step) completes:
  // that very step reports NaN on both paths.
  const SystemTrace reference =
      ExpectBoundaryCaseMatches({{Seconds(610), IncidentSymptom::kNanValue}});
  const std::ptrdiff_t at = RecordEndingAt(reference.records, Seconds(610));
  ASSERT_GE(at, 0);
  EXPECT_EQ(reference.records[static_cast<std::size_t>(at)].step, 60);
  EXPECT_TRUE(reference.records[static_cast<std::size_t>(at)].is_nan);
  ASSERT_FALSE(reference.detect_times.empty());
  EXPECT_EQ(reference.detect_times.front(), Seconds(610));
}

TEST(StepRunBoundaryTest, IncidentExactlyWhenAnMfuDeclineFires) {
  // First find when a silent downclock's MFU-decline alert fires, then land
  // a crash on a second machine exactly on that step's end.
  const std::vector<ScriptedIncident> decline = {{Seconds(400), IncidentSymptom::kMfuDecline}};
  const SystemTrace probe = RunBoundaryCase(false, 1, decline);
  ASSERT_FALSE(probe.detect_times.empty());
  const SimTime fired = probe.detect_times.front();
  ASSERT_GE(RecordEndingAt(probe.records, fired), 0) << "the alert fires on a step's end";
  ExpectBoundaryCaseMatches(
      {decline.front(), {fired, IncidentSymptom::kCudaError, /*machine=*/9, /*gpu=*/0}});
}

TEST(StepRunBoundaryTest, IncidentsAroundTheRecomputeBoundary) {
  // A crash forces a rollback; find the last replayed step and land a second
  // crash on its end, then (separately) on the first fresh step's end.
  const std::vector<ScriptedIncident> crash = {{Seconds(305), IncidentSymptom::kCudaError}};
  const SystemTrace probe = RunBoundaryCase(false, 1, crash);
  std::ptrdiff_t last_replayed = -1;
  for (std::size_t i = 0; i < probe.records.size(); ++i) {
    if (probe.records[i].recompute) {
      last_replayed = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(last_replayed, 0) << "the rollback should replay steps";
  const auto boundary = static_cast<std::size_t>(last_replayed);
  ASSERT_LT(boundary + 1, probe.records.size());
  ASSERT_FALSE(probe.records[boundary + 1].recompute);
  for (const SimTime at : {probe.records[boundary].end, probe.records[boundary + 1].end}) {
    ExpectBoundaryCaseMatches(
        {crash.front(), {at, IncidentSymptom::kCudaError, /*machine=*/9, /*gpu=*/0}});
  }
}

// ---------------------------------------------------------------------------
// Spike rule fallback. With loss noise of +-10x the curve can rise far more
// than 5x over an earlier step, so the rule cannot absorb runs and must fire
// on exactly the steps the per-step path fires on. A monitor without a
// controller keeps the job running through every alert.
// ---------------------------------------------------------------------------
struct MonitorTrace {
  std::vector<AnomalySource> sources;
  std::vector<SimTime> detect_times;
  std::int64_t longest_run = 0;
};

MonitorTrace RunMonitoredJob(const JobConfig& cfg, bool replay_without_reset) {
  Simulator sim;
  Cluster cluster(4, 2, 2);
  TrainJob job(cfg, &sim, &cluster, 5);
  Monitor monitor(MonitorConfig{}, &sim, &cluster, &job);
  MonitorTrace trace;
  monitor.SetAnomalyHandler([&trace](const AnomalyReport& report) {
    trace.sources.push_back(report.source);
    trace.detect_times.push_back(report.detect_time);
  });
  StepRecorder recorder(StepObserver::kUnbounded);
  job.AddStepObserver(&recorder);
  if (replay_without_reset) {
    // Replay the early curve once the window has settled on the tail. The
    // monitor is not told about the restart, so its window still holds
    // later steps than the replayed ones.
    sim.ScheduleAt(Hours(2) + Seconds(5), [&job] {
      job.Stop();
      job.RollbackToStep(0);
      job.Start();
    });
  }
  monitor.Start();
  job.Start();
  sim.RunUntil(Hours(4));
  trace.longest_run = recorder.longest_run;
  return trace;
}

TEST(StepRunSpikeTest, SpikesFireOnTheSameStepsWhenTheLossBoundBreaks) {
  JobConfig cfg = SmallJob(true);
  cfg.loss_noise_stddev = 10.0;  // a loss can rise ~11x over an earlier one
  ASSERT_GE(LossModel(cfg, 5).MaxRiseRatio(), MetricsRulesConfig().spike_factor);
  const MonitorTrace runs = RunMonitoredJob(cfg, false);
  cfg.batched_stepping = false;
  const MonitorTrace reference = RunMonitoredJob(cfg, false);
  EXPECT_EQ(runs.sources, reference.sources);
  EXPECT_EQ(runs.detect_times, reference.detect_times);
  EXPECT_GT(std::count(reference.sources.begin(), reference.sources.end(),
                       AnomalySource::kMetricSpike),
            0)
      << "noise this large should trip the spike rule";
  EXPECT_EQ(runs.longest_run, 1) << "no run may skip the per-step spike test";
}

TEST(StepRunSpikeTest, ReplayWithoutResetFallsBackToPerStepTests) {
  JobConfig cfg = SmallJob(true);
  cfg.loss_initial = 100.0;  // a steep early curve: replaying it spikes 5x
  cfg.loss_floor = 1.0;
  cfg.loss_decay_steps = 1.0;
  cfg.loss_decay_alpha = 2.0;
  ASSERT_LT(LossModel(cfg, 5).MaxRiseRatio(), MetricsRulesConfig().spike_factor);
  const MonitorTrace runs = RunMonitoredJob(cfg, true);
  cfg.batched_stepping = false;
  const MonitorTrace reference = RunMonitoredJob(cfg, true);
  EXPECT_EQ(runs.sources, reference.sources);
  EXPECT_EQ(runs.detect_times, reference.detect_times);
  ASSERT_FALSE(reference.sources.empty());
  EXPECT_EQ(reference.sources.front(), AnomalySource::kMetricSpike);
  EXPECT_GT(runs.longest_run, 10) << "the settled curve should run in long runs";
}

// The production presets satisfy the loss bound, so their spike rule
// absorbs whole runs.
TEST(StepRunSpikeTest, ProductionLossCurvesAreSpikeFree) {
  for (const JobConfig& cfg : {ProductionDenseJob(), ProductionMoeJob(), JobConfig{}}) {
    EXPECT_LT(LossModel(cfg, 1).MaxRiseRatio(), MetricsRulesConfig().spike_factor) << cfg.name;
  }
}

// ---------------------------------------------------------------------------
// Closed forms against step-by-step feeding.
// ---------------------------------------------------------------------------

// MetricsRules fed runs of random length (cut by its own quiet steps, as
// TrainJob cuts them) must report exactly what it reports fed one record per
// step: through MFU drops and recoveries, NaN stretches, resets and a replay.
TEST(StepRunClosedFormTest, MetricsRulesRunsMatchPerStepRecords) {
  JobConfig cfg = SmallJob(true);
  const LossModel losses(cfg, 3);
  const MetricsRulesConfig rules_cfg;
  MetricsRules runs(rules_cfg);
  MetricsRules reference(rules_cfg);
  Rng rng(17);
  std::int64_t step = 0;
  SimTime now = 0;
  int fired = 0;
  for (int segment = 0; segment < 400; ++segment) {
    StepRun next;
    next.first_step = step;
    next.start = now;
    next.step_time = Seconds(10);
    next.mfu = rng.Uniform() < 0.3 ? 0.1 : 0.3;  // drops below the decline ratio
    next.is_nan = rng.Uniform() < 0.05;
    next.run_id = 1;
    next.losses = &losses;
    next.count = std::max<std::int64_t>(
        1, std::min<std::int64_t>(1 + static_cast<std::int64_t>(rng.Uniform() * 40),
                                  runs.QuietSteps(next)));
    std::vector<std::optional<AnomalyReport>> got;
    if (!runs.TryAbsorb(next)) {
      ASSERT_EQ(next.count, 1);
      got.push_back(runs.OnStep(next.Record(0)));
    } else {
      got.assign(static_cast<std::size_t>(next.count), std::nullopt);
    }
    for (std::int64_t i = 0; i < next.count; ++i) {
      const auto expected = reference.OnStep(next.Record(i));
      const auto& actual = got[static_cast<std::size_t>(i)];
      ASSERT_EQ(actual.has_value(), expected.has_value()) << "step " << next.first_step + i;
      if (expected) {
        EXPECT_EQ(actual->source, expected->source);
        EXPECT_EQ(actual->detect_time, expected->detect_time);
        ++fired;
      }
    }
    step += next.count;
    now = next.end();
    if (segment % 97 == 96) {
      runs.Reset();
      reference.Reset();
    }
    if (segment == 250) {
      step -= 60;  // replay without a reset
    }
  }
  EXPECT_GT(fired, 10);
}

// The run-length ETTR tracker and MFU series fed random runs (contiguous or
// after a gap, productive or recompute, with MFU changing at equal step
// times) must hold what they hold fed one record per step.
TEST(StepRunClosedFormTest, MetricTrackersRunsMatchPerStepRecords) {
  const LossModel losses(SmallJob(true), 9);
  EttrTracker ettr_runs(0, Hours(1));
  EttrTracker ettr_steps(0, Hours(1));
  MfuSeries mfu_runs;
  MfuSeries mfu_steps;
  mfu_runs.SetRetention(Hours(1));
  mfu_steps.SetRetention(Hours(1));
  Rng rng(23);
  StepRun run;
  run.losses = &losses;
  run.run_id = 1;
  for (int i = 0; i < 600; ++i) {
    run.count = 1 + static_cast<std::int64_t>(rng.Uniform() * 30);
    run.step_time = rng.Uniform() < 0.8 ? Seconds(10) : Seconds(13);
    run.mfu = rng.Uniform() < 0.5 ? 0.3 : 0.25;
    run.is_nan = rng.Uniform() < 0.05;
    run.recompute = rng.Uniform() < 0.1;
    ettr_runs.OnRun(run);
    mfu_runs.OnRun(run);
    for (std::int64_t k = 0; k < run.count; ++k) {
      ettr_steps.OnStep(run.Record(k));
      mfu_steps.OnStep(run.Record(k));
    }
    const SimTime now = run.end();
    ASSERT_EQ(ettr_runs.SlidingEttr(now, Hours(1)), ettr_steps.SlidingEttr(now, Hours(1)));
    run.first_step += run.count;
    run.start = now;
    if (rng.Uniform() < 0.1) {  // a restart: a gap, a new run id
      run.start += Minutes(5);
      ++run.run_id;
    }
  }
  EXPECT_EQ(ettr_runs.productive_time(), ettr_steps.productive_time());
  EXPECT_EQ(ettr_runs.recompute_time(), ettr_steps.recompute_time());
  EXPECT_EQ(ettr_runs.productive_steps(), ettr_steps.productive_steps());
  EXPECT_EQ(ettr_runs.productive_by_run(), ettr_steps.productive_by_run());
  EXPECT_EQ(ettr_runs.retained_spans(), ettr_steps.retained_spans());
  EXPECT_EQ(ettr_runs.spans_folded(), ettr_steps.spans_folded());
  EXPECT_EQ(ettr_runs.folded_productive(), ettr_steps.folded_productive());
  EXPECT_EQ(mfu_runs.mfu_sum(), mfu_steps.mfu_sum());
  EXPECT_EQ(mfu_runs.total_samples(), mfu_steps.total_samples());
  EXPECT_EQ(mfu_runs.samples_folded(), mfu_steps.samples_folded());
  EXPECT_EQ(mfu_runs.MinMfu(), mfu_steps.MinMfu());
  EXPECT_EQ(mfu_runs.MaxMfu(), mfu_steps.MaxMfu());
  const std::deque<MfuSample>& got = mfu_runs.samples();
  const std::deque<MfuSample>& want = mfu_steps.samples();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(got.size(), 100u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << i;
    ASSERT_EQ(got[i].step, want[i].step) << i;
    ASSERT_EQ(got[i].mfu, want[i].mfu) << i;
    ASSERT_EQ(got[i].run_id, want[i].run_id) << i;
    ASSERT_TRUE((std::isnan(got[i].loss) && std::isnan(want[i].loss)) ||
                got[i].loss == want[i].loss)
        << i;
  }
}

struct CkptSnapshot {
  std::int64_t started, completed, durable;
  int in_flight;
  bool operator==(const CkptSnapshot&) const = default;
};

std::vector<CkptSnapshot> RunCheckpoints(bool batched, double serialize_gbps, int every,
                                         SimDuration* latency) {
  Simulator sim;
  Cluster cluster(4, 2, 2);
  TrainJob job(SmallJob(batched), &sim, &cluster, 42);
  CkptManagerConfig cfg;
  cfg.save_every_steps = every;
  cfg.serialize_async_gbps = serialize_gbps;
  CheckpointManager ckpt(cfg, &sim, &job);
  *latency = ckpt.SaveLatency();
  for (int i = 1; i <= 40; ++i) {
    sim.ScheduleAt(Seconds(293) * i, [] {});
  }
  sim.ScheduleAt(Seconds(2005), [&job] {  // a restart replays the last steps
    job.Stop();
    job.RollbackToStep(job.max_step_reached() - 7);
    job.Start();
  });
  job.Start();
  std::vector<CkptSnapshot> out;
  for (SimTime t = Seconds(131); t <= Hours(3); t += Seconds(131)) {
    sim.RunUntil(t);
    out.push_back({ckpt.saves_started(), ckpt.saves_completed(), ckpt.durable_step(),
                   ckpt.in_flight()});
  }
  return out;
}

// The dual-buffer save pattern advanced a run at a time matches per-step
// saves in every latency regime: a save done within one save period, within
// two, and longer.
TEST(StepRunClosedFormTest, CheckpointSavesMatchPerStepSaves) {
  bool regimes[3] = {false, false, false};
  for (const int every : {1, 3}) {
    for (const double gbps : {1e6, 40.0, 20.0, 8.0, 2.0, 0.5}) {
      SimDuration latency = 0;
      const auto runs = RunCheckpoints(true, gbps, every, &latency);
      const auto reference = RunCheckpoints(false, gbps, every, &latency);
      EXPECT_EQ(runs, reference) << "every " << every << " gbps " << gbps;
      const SimDuration period = every * Seconds(10);
      regimes[latency <= period ? 0 : latency <= 2 * period ? 1 : 2] = true;
    }
  }
  EXPECT_TRUE(regimes[0] && regimes[1] && regimes[2]) << "cover every latency regime";
}

TEST(PerfModelCacheTest, CachedQueriesTrackHealthEpoch) {
  Cluster cluster(4, 2);
  const PerfModel model(SmallJob(true));
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(10));
  // Cached call returns the same without a rescan (same epoch).
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(10));
  cluster.machine(2).gpu(1).clock_ratio = 0.5;  // bumps the health epoch
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(20));
  EXPECT_DOUBLE_EQ(model.Mfu(1.0, cluster), model.config().base_mfu * 0.5);
  // Efficiency changes re-key the derived cache without a cluster mutation.
  EXPECT_EQ(model.StepTime(2.0, cluster), Seconds(10));
  cluster.machine(2).ResetHealth();
  EXPECT_EQ(model.StepTime(2.0, cluster), Seconds(5));
  EXPECT_DOUBLE_EQ(model.Mfu(1.0, cluster), model.config().base_mfu);
}

// The dual-multiset sliding median must reproduce the copy-and-sort reference
// rule decision-for-decision on a noisy loss stream with spikes and NaNs.
TEST(MetricsRulesMedianTest, MatchesCopySortReference) {
  const MetricsRulesConfig cfg;
  MetricsRules rules(cfg);

  // Reference: the pre-optimization implementation, verbatim semantics.
  std::deque<double> window;
  const auto reference_on_step = [&](const StepRecord& rec) -> std::optional<AnomalySource> {
    if (rec.is_nan || std::isnan(rec.loss)) {
      return AnomalySource::kMetricNan;
    }
    if (static_cast<int>(window.size()) >= cfg.trailing_window / 2) {
      std::vector<double> v(window.begin(), window.end());
      std::sort(v.begin(), v.end());
      const double median = v.empty() ? 0.0 : v[v.size() / 2];
      if (median > 0.0 && rec.loss > cfg.spike_factor * median) {
        window.clear();
        return AnomalySource::kMetricSpike;
      }
    }
    window.push_back(rec.loss);
    while (static_cast<int>(window.size()) > cfg.trailing_window) {
      window.pop_front();
    }
    return std::nullopt;
  };

  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    StepRecord rec;
    rec.step = i;
    rec.end = Seconds(10) * i;
    rec.mfu = 0.3;  // constant: keep the MFU rule quiet
    rec.loss = 2.0 + rng.Uniform() * 0.5;
    if (i % 97 == 0) {
      rec.loss *= 50.0;  // spike
    }
    if (i % 531 == 0 && i > 0) {
      rec.is_nan = true;
      rec.loss = std::nan("");
      rec.grad_norm = std::nan("");
    }
    const auto expected = reference_on_step(rec);
    const auto actual = rules.OnStep(rec);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "step " << i;
    if (actual.has_value()) {
      EXPECT_EQ(actual->source, *expected) << "step " << i;
      EXPECT_EQ(actual->detect_time, rec.end);
    }
  }
}

}  // namespace
}  // namespace byterobust
