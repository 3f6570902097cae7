#include "src/metrics/ettr.h"

#include <algorithm>
#include <cmath>

namespace byterobust {

void EttrTracker::OnStep(const StepRecord& record) {
  StepRun run;
  run.first_step = record.step;
  run.count = 1;
  run.start = record.start;
  run.step_time = record.end - record.start;
  run.recompute = record.recompute;
  run.run_id = record.run_id;
  OnRun(run);
}

void EttrTracker::OnRun(const StepRun& run) {
  const SimDuration span = run.count * run.step_time;
  if (run.recompute) {
    recompute_ += span;
    return;
  }
  productive_ += span;
  productive_steps_ += run.count;
  if (run.run_id != cached_run_id_) {
    cached_run_id_ = run.run_id;
    cached_run_total_ = &productive_by_run_[run.run_id];
  }
  *cached_run_total_ += span;
  // Integer spans merge exactly: a sliding query clips a contiguous stretch
  // to the same total whether it walks the steps or the merged span.
  if (!productive_spans_.empty() && productive_spans_.back().end() == run.start &&
      productive_spans_.back().step_time == run.step_time) {
    productive_spans_.back().count += run.count;
  } else {
    productive_spans_.push_back({run.start, run.step_time, run.count});
  }
  if (retention_ <= 0) {
    return;
  }
  // Fold steps that closed before the retained window. A sliding query at the
  // live edge stops at the first step with end <= lo, so dropping exactly
  // those steps leaves the walked total unchanged: bit-identical results,
  // O(window) memory.
  const SimTime horizon = run.end() - retention_;
  while (!productive_spans_.empty() &&
         productive_spans_.front().start + productive_spans_.front().step_time <= horizon) {
    Span& front = productive_spans_.front();
    const std::int64_t closed =
        front.step_time > 0 ? std::min(front.count, (horizon - front.start) / front.step_time)
                            : front.count;
    folded_productive_ += closed * front.step_time;
    spans_folded_ += closed;
    front.start += closed * front.step_time;
    front.count -= closed;
    if (front.count == 0) {
      productive_spans_.pop_front();
    }
  }
}

std::size_t EttrTracker::retained_spans() const {
  std::int64_t steps = 0;
  for (const Span& span : productive_spans_) {
    steps += span.count;
  }
  return static_cast<std::size_t>(steps);
}

double EttrTracker::CumulativeEttr(SimTime now) const {
  const SimDuration wall = now - origin_;
  if (wall <= 0) {
    return 1.0;
  }
  return static_cast<double>(productive_) / static_cast<double>(wall);
}

double EttrTracker::SlidingEttr(SimTime now, SimDuration window) const {
  const SimTime lo = now - window;
  SimDuration in_window = 0;
  // Spans are appended in completion order; walk backwards until fully
  // before the window.
  for (auto it = productive_spans_.rbegin(); it != productive_spans_.rend(); ++it) {
    if (it->end() <= lo) {
      break;
    }
    const SimTime s = std::max(it->start, lo);
    const SimTime e = std::min(it->end(), now);
    if (e > s) {
      in_window += e - s;
    }
  }
  return static_cast<double>(in_window) / static_cast<double>(window);
}

void MfuSeries::OnStep(const StepRecord& record) {
  if (record.recompute) {
    return;
  }
  Append({record.end, record.end - record.start, record.step, 1, record.mfu, record.run_id,
          nullptr, record.loss});
}

void MfuSeries::OnRun(const StepRun& run) {
  if (run.recompute) {
    return;
  }
  Append({run.StepEnd(0), run.step_time, run.first_step, run.count, run.mfu, run.run_id,
          run.is_nan ? nullptr : run.losses, std::nan("")});
}

void MfuSeries::Append(const Entry& entry) {
  if (total_samples_ == 0 || entry.mfu < min_mfu_) {
    min_mfu_ = entry.mfu;
  }
  max_mfu_ = std::max(max_mfu_, entry.mfu);
  // One add per sample: n * mfu would round differently from n additions.
  for (std::int64_t i = 0; i < entry.count; ++i) {
    mfu_sum_ += entry.mfu;
  }
  total_samples_ += entry.count;
  samples_stale_ = true;
  Entry* back = entries_.empty() ? nullptr : &entries_.back();
  if (back != nullptr && entry.losses != nullptr && back->losses == entry.losses &&
      back->mfu == entry.mfu && back->run_id == entry.run_id &&
      back->step_time == entry.step_time && back->first_step + back->count == entry.first_step &&
      back->first_end + back->count * back->step_time == entry.first_end) {
    back->count += entry.count;
  } else {
    entries_.push_back(entry);
  }
  if (retention_ <= 0) {
    return;
  }
  const SimTime last_end = entry.first_end + (entry.count - 1) * entry.step_time;
  const SimTime horizon = last_end - retention_;
  while (!entries_.empty() && entries_.front().first_end <= horizon) {
    Entry& front = entries_.front();
    const std::int64_t folded =
        front.step_time > 0
            ? std::min(front.count, (horizon - front.first_end) / front.step_time + 1)
            : front.count;
    samples_folded_ += folded;
    front.first_end += folded * front.step_time;
    front.first_step += folded;
    front.count -= folded;
    if (front.count == 0) {
      entries_.pop_front();
    }
  }
}

const std::deque<MfuSample>& MfuSeries::samples() const {
  if (samples_stale_) {
    samples_.clear();
    for (const Entry& e : entries_) {
      for (std::int64_t i = 0; i < e.count; ++i) {
        const std::int64_t step = e.first_step + i;
        samples_.push_back({e.first_end + i * e.step_time, step, e.mfu,
                            e.losses != nullptr ? e.losses->LossAt(step) : e.loss, e.run_id});
      }
    }
    samples_stale_ = false;
  }
  return samples_;
}

double MfuSeries::MinMfu() const { return total_samples_ == 0 ? 0.0 : min_mfu_; }

double MfuSeries::MaxMfu() const { return std::max(max_mfu_, 0.0); }

std::vector<double> MfuSeries::RelativeMfu() const {
  std::vector<double> out;
  const double min = MinMfu();
  if (min <= 0.0) {
    return out;
  }
  out.reserve(samples().size());
  for (const auto& s : samples()) {
    out.push_back(s.mfu / min);
  }
  return out;
}

}  // namespace byterobust
