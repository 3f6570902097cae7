#include "src/monitor/metrics_rules.h"

#include <algorithm>
#include <cmath>

namespace byterobust {

std::optional<AnomalyReport> MetricsRules::OnStep(const StepRecord& record) {
  AnomalyReport report;
  report.detect_time = record.end;

  if (record.is_nan || std::isnan(record.loss) || std::isnan(record.grad_norm)) {
    report.source = AnomalySource::kMetricNan;
    report.symptom_hint = IncidentSymptom::kNanValue;
    report.detail = "NaN loss/grad-norm";
    return report;
  }

  // Spike detection against the trailing median.
  MaterializeAbsorbed();
  if (static_cast<int>(recent_loss_.size()) >= config_.trailing_window / 2) {
    const double median = TrailingMedianLoss();
    if (median > 0.0 && record.loss > config_.spike_factor * median) {
      report.source = AnomalySource::kMetricSpike;
      report.symptom_hint = IncidentSymptom::kNanValue;  // treated like loss anomaly
      report.detail = "loss spike > 5x trailing median";
      ClearWindow();
      return report;
    }
  }
  recent_loss_.push_back(record.loss);
  MedianInsert(record.loss);
  while (static_cast<int>(recent_loss_.size()) > config_.trailing_window) {
    MedianErase(recent_loss_.front());
    recent_loss_.pop_front();
  }
  window_max_step_ = std::max(window_max_step_, record.step);

  // MFU decline: compare to the high-water mark of this run.
  mfu_high_water_ = std::max(mfu_high_water_, record.mfu);
  if (mfu_high_water_ > 0.0 && record.mfu < config_.decline_ratio * mfu_high_water_) {
    ++decline_run_;
    if (decline_run_ >= config_.decline_steps) {
      decline_run_ = 0;
      report.source = AnomalySource::kMfuDecline;
      report.symptom_hint = IncidentSymptom::kMfuDecline;
      report.detail = "sustained MFU decline";
      return report;
    }
  } else {
    decline_run_ = 0;
  }
  return std::nullopt;
}

std::int64_t MetricsRules::QuietSteps(const StepRun& next) const {
  // A loss at most MaxRiseRatio() times any earlier step's is at most that
  // many times the window's minimum, hence its median: below spike_factor,
  // the spike test cannot pass.
  if (next.is_nan || next.losses == nullptr ||
      !(next.losses->MaxRiseRatio() < config_.spike_factor) ||
      next.first_step <= window_max_step_) {
    return 0;
  }
  const double high_water = std::max(mfu_high_water_, next.mfu);
  if (high_water > 0.0 && next.mfu < config_.decline_ratio * high_water) {
    return std::max(0, config_.decline_steps - decline_run_ - 1);
  }
  return StepObserver::kUnbounded;
}

bool MetricsRules::TryAbsorb(const StepRun& run) {
  if (QuietSteps(run) < run.count) {
    return false;
  }
  if (absorbed_count_ > 0 && (absorbed_losses_ != run.losses ||
                              absorbed_first_ + absorbed_count_ != run.first_step)) {
    MaterializeAbsorbed();
  }
  if (absorbed_count_ == 0) {
    absorbed_losses_ = run.losses;
    absorbed_first_ = run.first_step;
  }
  absorbed_count_ += run.count;
  const std::int64_t window = std::max(config_.trailing_window, 0);
  if (absorbed_count_ >= window) {
    // The absorbed steps alone fill the window.
    recent_loss_.clear();
    sorted_loss_.clear();
    absorbed_first_ += absorbed_count_ - window;
    absorbed_count_ = window;
  }
  window_max_step_ = run.first_step + run.count - 1;

  mfu_high_water_ = std::max(mfu_high_water_, run.mfu);
  if (mfu_high_water_ > 0.0 && run.mfu < config_.decline_ratio * mfu_high_water_) {
    decline_run_ += static_cast<int>(run.count);  // QuietSteps keeps it below decline_steps
  } else {
    decline_run_ = 0;
  }
  return true;
}

void MetricsRules::MaterializeAbsorbed() {
  const std::int64_t end = absorbed_first_ + absorbed_count_;
  for (std::int64_t step = absorbed_first_; step < end; ++step) {
    const double loss = absorbed_losses_->LossAt(step);
    recent_loss_.push_back(loss);
    MedianInsert(loss);
    if (static_cast<int>(recent_loss_.size()) > config_.trailing_window) {
      MedianErase(recent_loss_.front());
      recent_loss_.pop_front();
    }
  }
  absorbed_count_ = 0;
}

void MetricsRules::ClearWindow() {
  recent_loss_.clear();
  sorted_loss_.clear();
  absorbed_count_ = 0;
  window_max_step_ = -1;
}

void MetricsRules::Reset() {
  ClearWindow();
  mfu_high_water_ = 0.0;
  decline_run_ = 0;
}

double MetricsRules::TrailingMedianLoss() const {
  return sorted_loss_.empty() ? 0.0 : sorted_loss_[sorted_loss_.size() / 2];
}

void MetricsRules::MedianInsert(double value) {
  sorted_loss_.insert(std::upper_bound(sorted_loss_.begin(), sorted_loss_.end(), value), value);
}

void MetricsRules::MedianErase(double value) {
  // value is drawn from the window, so the lower_bound below cannot miss.
  sorted_loss_.erase(std::lower_bound(sorted_loss_.begin(), sorted_loss_.end(), value));
}

}  // namespace byterobust
