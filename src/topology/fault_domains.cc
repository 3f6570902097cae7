#include "src/topology/fault_domains.h"

#include <algorithm>
#include <stdexcept>

namespace byterobust {

const char* DomainLevelName(DomainLevel level) {
  switch (level) {
    case DomainLevel::kNic:
      return "nic";
    case DomainLevel::kTor:
      return "tor";
    case DomainLevel::kSpine:
      return "spine";
    case DomainLevel::kPod:
      return "pod";
  }
  return "unknown";
}

namespace {
int DivUp(int a, int b) { return (a + b - 1) / b; }
}  // namespace

FaultDomains::FaultDomains(const FaultDomainConfig& config, int num_machines)
    : config_(config), num_machines_(num_machines) {
  if (num_machines <= 0) {
    throw std::invalid_argument("fault-domain graph needs at least one machine");
  }
  config_.machines_per_tor = std::max(config_.machines_per_tor, 1);
  config_.tors_per_spine = std::max(config_.tors_per_spine, 1);
  config_.spines_per_pod = std::max(config_.spines_per_pod, 1);

  const int num_nics = num_machines;
  const int num_tors = DivUp(num_machines, config_.machines_per_tor);
  const int num_spines = DivUp(num_tors, config_.tors_per_spine);
  const int num_pods = DivUp(num_spines, config_.spines_per_pod);
  const int counts[kNumDomainLevels] = {num_nics, num_tors, num_spines, num_pods};
  level_offset_[0] = 0;
  for (int l = 0; l < kNumDomainLevels; ++l) {
    level_offset_[l + 1] = level_offset_[l] + counts[l];
  }
  domains_.reserve(static_cast<std::size_t>(level_offset_[kNumDomainLevels]));

  // Machines covered per domain at each level (contiguous-id bands).
  const int span_tor = config_.machines_per_tor;
  const int span_spine = span_tor * config_.tors_per_spine;
  const int span_pod = span_spine * config_.spines_per_pod;
  const int spans[kNumDomainLevels] = {1, span_tor, span_spine, span_pod};

  for (int l = 0; l < kNumDomainLevels; ++l) {
    for (int i = 0; i < counts[l]; ++i) {
      Domain d;
      d.id = level_offset_[l] + i;
      d.level = static_cast<DomainLevel>(l);
      d.index = i;
      d.machine_begin = i * spans[l];
      d.machine_end = std::min(d.machine_begin + spans[l], num_machines);
      if (l + 1 < kNumDomainLevels) {
        // Parent index: which band one level up covers this domain's machines.
        const int parent_index =
            std::min(d.machine_begin / spans[l + 1], counts[l + 1] - 1);
        d.parent = level_offset_[l + 1] + parent_index;
      }
      domains_.push_back(d);
    }
  }
}

int FaultDomains::CountAtLevel(DomainLevel level) const {
  const int l = static_cast<int>(level);
  return level_offset_[l + 1] - level_offset_[l];
}

DomainId FaultDomains::DomainIdAt(DomainLevel level, int index) const {
  const int l = static_cast<int>(level);
  if (index < 0 || index >= CountAtLevel(level)) {
    throw std::out_of_range("domain index out of range for level");
  }
  return level_offset_[l] + index;
}

std::vector<DomainId> FaultDomains::PathOfMachine(MachineId machine) const {
  std::vector<DomainId> path;
  path.reserve(kNumDomainLevels);
  const int span_tor = config_.machines_per_tor;
  const int span_spine = span_tor * config_.tors_per_spine;
  const int span_pod = span_spine * config_.spines_per_pod;
  const int spans[kNumDomainLevels] = {1, span_tor, span_spine, span_pod};
  const int m = std::max(machine, 0);
  for (int l = 0; l < kNumDomainLevels; ++l) {
    const int count = level_offset_[l + 1] - level_offset_[l];
    const int index = std::min(m / spans[l], count - 1);
    path.push_back(level_offset_[l] + index);
  }
  return path;
}

void FaultDomains::SetState(DomainId id, DomainState state, double degradation_factor,
                            SimTime now) {
  Domain& d = domains_.at(static_cast<std::size_t>(id));
  d.state = state;
  d.degradation_factor = state == DomainState::kUp ? 1.0 : degradation_factor;
  d.state_since = now;
  const auto it = std::lower_bound(impaired_.begin(), impaired_.end(), id);
  const bool listed = it != impaired_.end() && *it == id;
  if (state == DomainState::kUp) {
    if (listed) {
      impaired_.erase(it);
    }
  } else if (!listed) {
    impaired_.insert(it, id);
  }
  if (health_epoch_hook_ != nullptr) {
    health_epoch_hook_->Bump();
  }
}

double FaultDomains::CongestionFactorFor(const std::vector<MachineId>& serving) const {
  if (impaired_.empty() || serving.size() < 2) {
    return 1.0;
  }
  double factor = 1.0;
  for (DomainId id : impaired_) {
    const Domain& d = domains_[static_cast<std::size_t>(id)];
    if (d.degradation_factor >= 1.0) {
      continue;  // degraded but not a fail-slow link (e.g. a flapping spine)
    }
    int inside = 0;
    for (MachineId m : serving) {
      if (m >= d.machine_begin && m < d.machine_end) {
        ++inside;
      }
    }
    // Only traffic *crossing* the domain boundary rides the degraded link; a
    // job entirely inside (or entirely outside) the band keeps local links.
    if (inside > 0 && inside < static_cast<int>(serving.size())) {
      factor = std::min(factor, d.degradation_factor);
    }
  }
  return factor;
}

}  // namespace byterobust
