// ETTR accounting (paper Sec. 8.1.3): cumulative ETTR is productive training
// time over wall-clock time; sliding-window ETTR is the same ratio over a
// one-hour window, exposing the temporal dynamics of failure handling.
// Recomputed steps (work lost to restarts) are *not* productive.
//
// Both trackers take whole step runs and keep run-length state: a span or
// sample entry covers every contiguous step of equal duration (and, for MFU,
// equal MFU and run id), expanded step by step only when read.
//
// Windowed compaction: with a nonzero retention, closed spans/samples older
// than the trailing window are folded into running aggregates (sum, count,
// min/max, per-run totals) as steps arrive, so memory stays O(window) for
// month-scale campaigns while cumulative metrics and any sliding query at the
// live edge with window <= retention remain bit-identical to the unbounded
// tracker. Historical sliding queries (ETTR curves for plots) need the
// default retention of 0 (unbounded).

#ifndef SRC_METRICS_ETTR_H_
#define SRC_METRICS_ETTR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/training/train_job.h"

namespace byterobust {

class EttrTracker {
 public:
  // `origin` is the campaign's wall-clock start. `retention` > 0 bounds the
  // retained span window (see the file comment); 0 keeps every span.
  explicit EttrTracker(SimTime origin = 0, SimDuration retention = 0)
      : origin_(origin), retention_(retention) {}

  // The hot-path cache below points into this tracker's own map; copies and
  // moves must drop it rather than alias the source's storage.
  EttrTracker(const EttrTracker& other) { *this = other; }
  EttrTracker& operator=(const EttrTracker& other) {
    if (this != &other) {
      origin_ = other.origin_;
      retention_ = other.retention_;
      productive_ = other.productive_;
      recompute_ = other.recompute_;
      productive_steps_ = other.productive_steps_;
      productive_by_run_ = other.productive_by_run_;
      spans_folded_ = other.spans_folded_;
      folded_productive_ = other.folded_productive_;
      productive_spans_ = other.productive_spans_;
      cached_run_id_ = -1;
      cached_run_total_ = nullptr;
    }
    return *this;
  }
  EttrTracker(EttrTracker&& other) noexcept
      : origin_(other.origin_),
        retention_(other.retention_),
        productive_(other.productive_),
        recompute_(other.recompute_),
        productive_steps_(other.productive_steps_),
        productive_by_run_(std::move(other.productive_by_run_)),
        spans_folded_(other.spans_folded_),
        folded_productive_(other.folded_productive_),
        productive_spans_(std::move(other.productive_spans_)) {
    other.cached_run_id_ = -1;
    other.cached_run_total_ = nullptr;
  }
  EttrTracker& operator=(EttrTracker&& other) noexcept {
    if (this != &other) {
      origin_ = other.origin_;
      retention_ = other.retention_;
      productive_ = other.productive_;
      recompute_ = other.recompute_;
      productive_steps_ = other.productive_steps_;
      productive_by_run_ = std::move(other.productive_by_run_);
      spans_folded_ = other.spans_folded_;
      folded_productive_ = other.folded_productive_;
      productive_spans_ = std::move(other.productive_spans_);
      cached_run_id_ = -1;
      cached_run_total_ = nullptr;
      other.cached_run_id_ = -1;
      other.cached_run_total_ = nullptr;
    }
    return *this;
  }

  // Feed every completed step or run (ByteRobustSystem wires the job's runs).
  void OnStep(const StepRecord& record);
  void OnRun(const StepRun& run);

  // Cumulative ETTR at time `now`.
  double CumulativeEttr(SimTime now) const;

  // ETTR over the trailing `window` ending at `now` (default one hour). With
  // a nonzero retention, exact only for `now` at/after the newest span and
  // `window` <= retention.
  double SlidingEttr(SimTime now, SimDuration window = Hours(1)) const;

  SimDuration productive_time() const { return productive_; }
  SimDuration recompute_time() const { return recompute_; }
  std::int64_t productive_steps() const { return productive_steps_; }

  // Productive time per run id (running aggregate, unaffected by compaction).
  const std::map<int, SimDuration>& productive_by_run() const { return productive_by_run_; }

  // Compaction statistics, in steps.
  SimDuration retention() const { return retention_; }
  std::size_t retained_spans() const;
  std::int64_t spans_folded() const { return spans_folded_; }
  SimDuration folded_productive() const { return folded_productive_; }

 private:
  // `count` contiguous productive steps of `step_time` each from `start`.
  struct Span {
    SimTime start;
    SimDuration step_time;
    std::int64_t count;

    SimTime end() const { return start + count * step_time; }
  };

  SimTime origin_;
  SimDuration retention_;
  SimDuration productive_ = 0;
  SimDuration recompute_ = 0;
  std::int64_t productive_steps_ = 0;
  std::map<int, SimDuration> productive_by_run_;
  // Hot-path cache: steps arrive in run order, so the per-run total is one
  // pointer chase away instead of a map lookup per step (map nodes are
  // pointer-stable, so the cached slot survives later insertions).
  int cached_run_id_ = -1;
  SimDuration* cached_run_total_ = nullptr;
  std::int64_t spans_folded_ = 0;
  SimDuration folded_productive_ = 0;
  std::deque<Span> productive_spans_;  // sorted by end time (append order)
};

// A (time, mfu) sample series for Figs. 2 and 11: one sample per productive
// step, at its end time.
struct MfuSample {
  SimTime time = 0;
  std::int64_t step = 0;
  double mfu = 0.0;
  double loss = 0.0;
  int run_id = 0;
};

class MfuSeries {
 public:
  void OnStep(const StepRecord& record);
  void OnRun(const StepRun& run);

  // With a nonzero retention, only the samples inside the trailing window.
  // Expanded from the run-length entries on the first read after a change,
  // reading losses from the job's loss curve: read it while the job lives.
  const std::deque<MfuSample>& samples() const;

  // Sets the trailing retention window; samples older than it are folded into
  // the running aggregates below as steps arrive. 0 (default) keeps all.
  void SetRetention(SimDuration retention) { retention_ = retention; }

  // Relative MFU: ratio of each *retained* sample to the series minimum
  // (paper Fig. 11). Covers the full series when retention is 0.
  std::vector<double> RelativeMfu() const;
  // Min/max over *every* sample ever observed (running aggregates, so they
  // are exact regardless of compaction).
  double MinMfu() const;
  double MaxMfu() const;

  std::int64_t total_samples() const { return total_samples_; }
  std::int64_t samples_folded() const { return samples_folded_; }
  double mfu_sum() const { return mfu_sum_; }

 private:
  // `count` samples of consecutive steps from `first_step`, ending
  // `step_time` apart from `first_end`.
  struct Entry {
    SimTime first_end;
    SimDuration step_time;
    std::int64_t first_step;
    std::int64_t count;
    double mfu;
    int run_id;
    const LossModel* losses;  // null: every sample's loss is `loss`
    double loss;
  };

  void Append(const Entry& entry);

  SimDuration retention_ = 0;
  std::deque<Entry> entries_;
  mutable std::deque<MfuSample> samples_;
  mutable bool samples_stale_ = false;
  std::int64_t total_samples_ = 0;
  std::int64_t samples_folded_ = 0;
  double mfu_sum_ = 0.0;
  double min_mfu_ = 0.0;
  double max_mfu_ = 0.0;
};

}  // namespace byterobust

#endif  // SRC_METRICS_ETTR_H_
