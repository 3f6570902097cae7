#include "src/monitor/monitor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/log.h"

namespace byterobust {

const char* AnomalySourceName(AnomalySource source) {
  switch (source) {
    case AnomalySource::kInspection:
      return "inspection";
    case AnomalySource::kCrashLog:
      return "crash-log";
    case AnomalySource::kMetricNan:
      return "metric-nan";
    case AnomalySource::kMetricSpike:
      return "metric-spike";
    case AnomalySource::kHangSuspect:
      return "hang-suspect";
    case AnomalySource::kMfuDecline:
      return "mfu-decline";
  }
  return "unknown";
}

Monitor::Monitor(const MonitorConfig& config, Simulator* sim, Cluster* cluster, TrainJob* job)
    : config_(config),
      sim_(sim),
      cluster_(cluster),
      job_(job),
      rules_(config.metrics) {
  job_->AddStepObserver(this);
  job_->AddStateObserver([this](JobRunState state) { OnJobStateChange(state); });
}

void Monitor::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  anchor_ = sim_->Now();
  if (!config_.quiescent) {
    for (InspectionCategory cat :
         {InspectionCategory::kNetwork, InspectionCategory::kGpu, InspectionCategory::kHost}) {
      sim_->Schedule(config_.intervals.For(cat), [this, cat] { RunInspectionPass(cat); });
    }
    sim_->Schedule(config_.watchdog_interval, [this] { RunWatchdog(); });
    return;
  }
  // Quiescent: run the first grid tick of every pass (it disarms itself if
  // the cluster is clean), then let wakers drive the schedule.
  ArmAllInspections();
  ArmWatchdog();
}

void Monitor::Stop() { running_ = false; }

void Monitor::OnJobRestart() {
  outstanding_.clear();
  switch_event_counts_.clear();
  rules_.Reset();
  crash_reported_ = false;
  hang_reported_ = false;
  if (config_.quiescent && running_) {
    // The flag reset can newly enable the hang/crash predicates, and evicted
    // suspects may have left the serving set: recompute both schedules.
    ArmAllInspections();
    ArmWatchdog();
  }
}

SimTime Monitor::NextTickAfter(SimTime t, SimDuration interval) const {
  std::int64_t k = 1;
  if (t > anchor_) {
    k = (t - anchor_) / interval + 1;
  }
  return anchor_ + k * interval;
}

SimTime Monitor::NextTickAtOrAfter(SimTime t, SimDuration interval) const {
  std::int64_t k = 1;
  if (t > anchor_) {
    k = (t - anchor_ + interval - 1) / interval;
  }
  return anchor_ + k * interval;
}

void Monitor::EnsureMutationWake() {
  if (wake_requested_) {
    return;
  }
  wake_requested_ = true;
  // The waker runs synchronously inside a mutating call, possibly with the
  // mutation half-applied; it only re-arms grid events and reads no health
  // state. Passes that find a clean cluster re-disarm at their next tick.
  cluster_->RequestMutationWake([this] {
    wake_requested_ = false;
    if (running_) {
      ArmAllInspections();
    }
  });
}

void Monitor::ArmAllInspections() {
  for (InspectionCategory cat :
       {InspectionCategory::kNetwork, InspectionCategory::kGpu, InspectionCategory::kHost}) {
    const int idx = CategoryIndex(cat);
    if (inspection_armed_[idx]) {
      continue;
    }
    inspection_armed_[idx] = true;
    // At-or-after: a fault applied exactly on a grid tick is still seen by
    // that tick's pass on the periodic path (the injection event was enqueued
    // long before the pass event, so it dispatches first), so the re-armed
    // pass must fire at the same timestamp.
    sim_->ScheduleAt(NextTickAtOrAfter(sim_->Now(), config_.intervals.For(cat)),
                     [this, cat] { RunInspectionPass(cat); });
  }
}

void Monitor::ArmInspection(InspectionCategory category) {
  if (!config_.quiescent) {
    sim_->Schedule(config_.intervals.For(category),
                   [this, category] { RunInspectionPass(category); });
    return;
  }
  if (cluster_->SuspectServingMachines().empty()) {
    // Provably nothing to find until the next health mutation: park on the
    // cluster's waker instead of burning one event per interval.
    EnsureMutationWake();
    return;
  }
  inspection_armed_[CategoryIndex(category)] = true;
  sim_->ScheduleAt(NextTickAfter(sim_->Now(), config_.intervals.For(category)),
                   [this, category] { RunInspectionPass(category); });
}

void Monitor::RunInspectionPass(InspectionCategory category) {
  inspection_armed_[CategoryIndex(category)] = false;
  if (!running_) {
    return;
  }
  for (const InspectionFinding& f : RunInspection(category, *cluster_)) {
    // The switch-reachability item needs two consecutive hits (Table 3).
    // Const access: a read must not mark the machine health-dirty.
    if (category == InspectionCategory::kNetwork &&
        !std::as_const(*cluster_).machine(f.machine).host().switch_reachable) {
      if (++switch_event_counts_[f.machine] < config_.switch_event_threshold) {
        continue;
      }
    }
    const auto key = std::make_pair(f.machine, static_cast<int>(f.symptom));
    if (!outstanding_.insert(key).second) {
      continue;  // already reported this run
    }
    AnomalyReport report;
    report.source = AnomalySource::kInspection;
    report.symptom_hint = f.symptom;
    report.machines = {f.machine};
    report.high_confidence = f.high_confidence;
    report.detect_time = sim_->Now();
    report.detail = std::string(InspectionCategoryName(category)) + " inspection hit";
    Emit(std::move(report));
  }
  ArmInspection(category);
}

void Monitor::ArmWatchdog() {
  if (!config_.quiescent || !running_) {
    return;
  }
  // Earliest grid tick at which a watchdog predicate could fire given the
  // current job state. kNoPendingEvent means "none without a state change".
  SimTime desired = Simulator::kNoPendingEvent;
  bool crash_armed = false;
  const JobRunState state = job_->state();
  const bool nominally_running = state == JobRunState::kRunning || state == JobRunState::kHung;
  if (state == JobRunState::kCrashed && !crash_reported_) {
    desired = NextTickAtOrAfter(sim_->Now(), config_.watchdog_interval);
    crash_armed = true;
  } else if (nominally_running && !hang_reported_) {
    // The hang predicate needs now - last_progress > threshold, and threshold
    // >= hang_grace always, so no tick at or before last_progress + grace can
    // fire. The armed tick re-evaluates with fresh progress and re-arms.
    const SimTime earliest = std::max(sim_->Now(), job_->last_progress_time() + config_.hang_grace);
    desired = NextTickAfter(earliest, config_.watchdog_interval);
  }
  if (desired == Simulator::kNoPendingEvent) {
    if (watchdog_event_ != kInvalidEventId) {
      sim_->Cancel(watchdog_event_);
      watchdog_event_ = kInvalidEventId;
    }
    return;
  }
  if (watchdog_event_ != kInvalidEventId) {
    if (watchdog_due_ <= desired) {
      return;  // an earlier wake re-evaluates and re-arms; never late
    }
    sim_->Cancel(watchdog_event_);
  }
  watchdog_due_ = desired;
  watchdog_crash_armed_ = crash_armed;
  watchdog_event_ = sim_->ScheduleAt(desired, [this] { RunWatchdog(); });
}

void Monitor::RunWatchdog() {
  // See watchdog_crash_armed_: a hang-armed wake was enqueued before this
  // tick's inspection passes, so letting it see a crash would report ahead of
  // a same-tick pass that stops the job first on the periodic path. It skips
  // the crash branch here; the re-arm below immediately schedules a
  // crash-armed wake at this same timestamp, behind those passes.
  const bool evaluate_crash = !config_.quiescent || watchdog_crash_armed_;
  watchdog_event_ = kInvalidEventId;
  watchdog_crash_armed_ = false;
  if (!running_) {
    return;
  }
  // Crash detection through log / exit-code scraping.
  if (evaluate_crash && job_->state() == JobRunState::kCrashed && !crash_reported_) {
    crash_reported_ = true;
    AnomalyReport report;
    report.source = AnomalySource::kCrashLog;
    report.symptom_hint = IncidentSymptom::kCudaError;
    report.detect_time = sim_->Now();
    report.detail = "process exit detected in logs";
    // Detection through stderr scraping lags by about one scrape interval.
    sim_->Schedule(config_.log_scrape_interval, [this, report] { Emit(report); });
  }

  // Hang detection: no progress beyond the hang threshold while nominally
  // running (a hung job still *looks* running; state kHung models the silent
  // stall and is not directly visible, so we use progress timestamps).
  const bool nominally_running =
      job_->state() == JobRunState::kRunning || job_->state() == JobRunState::kHung;
  if (nominally_running && !hang_reported_) {
    const SimDuration threshold =
        std::max(config_.hang_grace, static_cast<SimDuration>(config_.hang_step_factor *
                                                              static_cast<double>(
                                                                  job_->CurrentStepTime())));
    if (sim_->Now() - job_->last_progress_time() > threshold) {
      hang_reported_ = true;
      AnomalyReport report;
      report.source = AnomalySource::kHangSuspect;
      report.symptom_hint = IncidentSymptom::kJobHang;
      report.detect_time = sim_->Now();
      report.detail = "no step progress within hang threshold";
      Emit(std::move(report));
    }
  }
  if (!config_.quiescent) {
    sim_->Schedule(config_.watchdog_interval, [this] { RunWatchdog(); });
    return;
  }
  ArmWatchdog();
}

void Monitor::OnJobStateChange(JobRunState state) {
  (void)state;
  if (config_.quiescent && running_) {
    ArmWatchdog();
  }
}

std::int64_t Monitor::Horizon(const StepRun& next) const {
  return running_ ? rules_.QuietSteps(next) : kUnbounded;
}

void Monitor::OnRun(const StepRun& run) {
  if (!running_ || rules_.TryAbsorb(run)) {
    return;
  }
  for (std::int64_t i = 0; i < run.count; ++i) {
    if (auto report = rules_.OnStep(run.Record(i))) {
      Emit(std::move(*report));
    }
  }
}

void Monitor::Emit(AnomalyReport report) {
  ++reports_emitted_;
  BR_LOG_INFO("monitor", "anomaly: %s (%s) machines=%zu", AnomalySourceName(report.source),
              SymptomName(report.symptom_hint), report.machines.size());
  if (handler_) {
    handler_(report);
  }
}

}  // namespace byterobust
