#include "src/faults/fault_injector.h"

#include <stdexcept>

namespace byterobust {

FaultInjector::FaultInjector(const FaultInjectorConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  for (const SymptomStats& s : PaperSymptomStats()) {
    if (s.symptom == IncidentSymptom::kCodeDataAdjustment) {
      continue;  // manual restarts follow their own clock
    }
    failure_symptoms_.push_back(s.symptom);
    failure_weights_.push_back(static_cast<double>(s.paper_count));
  }
}

namespace {

// Casting a double above INT64_MAX to SimDuration is undefined behaviour (and
// in practice wraps negative, which Schedule() clamps to an *immediate* event
// -- the exact opposite of a huge delay). Saturate instead so extreme MTBF
// configs mean "effectively never".
SimDuration SaturatingDuration(double microseconds) {
  constexpr double kMax = 9.2e18;  // just below INT64_MAX
  if (microseconds >= kMax) {
    return static_cast<SimDuration>(kMax);
  }
  return static_cast<SimDuration>(microseconds);
}

}  // namespace

SimDuration FaultInjector::MtbfFor(int num_machines) const {
  if (num_machines <= 0) {
    throw std::invalid_argument("num_machines must be positive");
  }
  const double scale =
      static_cast<double>(config_.reference_machines) / static_cast<double>(num_machines);
  return SaturatingDuration(static_cast<double>(config_.reference_mtbf) * scale);
}

SimDuration FaultInjector::NextFailureDelay(int num_machines) {
  const double mean = static_cast<double>(MtbfFor(num_machines));
  return SaturatingDuration(rng_.Exponential(mean));
}

RootCause FaultInjector::SampleRootCause(IncidentSymptom symptom) {
  if (rng_.Bernoulli(UserCodeProbability(symptom) * config_.user_code_scale)) {
    return RootCause::kUserCode;
  }
  // Infrastructure-rooted; some symptom classes are frequently transient.
  switch (symptom) {
    case IncidentSymptom::kInfinibandError:
    case IncidentSymptom::kHdfsError:
    case IncidentSymptom::kExternalServiceError:
    case IncidentSymptom::kFilesystemMount:
      if (rng_.Bernoulli(config_.transient_fraction * 1.5)) {
        return RootCause::kTransient;
      }
      break;
    case IncidentSymptom::kCudaError:
    case IncidentSymptom::kContainerError:
    case IncidentSymptom::kCpuOverload:
      if (rng_.Bernoulli(config_.transient_fraction)) {
        return RootCause::kTransient;
      }
      break;
    case IncidentSymptom::kNanValue:
      if (rng_.Bernoulli(config_.nan_sdc_fraction)) {
        return RootCause::kSdc;
      }
      break;
    default:
      break;
  }
  return RootCause::kInfrastructure;
}

Incident FaultInjector::SampleFailure(SimTime now, const std::vector<MachineId>& serving) {
  if (serving.empty()) {
    throw std::invalid_argument("no serving machines to fail");
  }
  Incident inc;
  inc.id = next_incident_id_++;
  inc.inject_time = now;
  inc.symptom = failure_symptoms_[rng_.WeightedIndex(failure_weights_)];
  inc.root_cause = SampleRootCause(inc.symptom);

  // Failures are independent single-node events (Sec. 6.2); user-code bugs
  // manifest cluster-wide and carry no faulty machine.
  if (inc.root_cause != RootCause::kUserCode) {
    const auto pick = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(serving.size()) - 1));
    inc.faulty_machines.push_back(serving[pick]);
    inc.gpu_index = static_cast<int>(rng_.UniformInt(0, 7)) % 8;
  }
  return inc;
}

Incident FaultInjector::SampleManualRestart(SimTime now) {
  Incident inc;
  inc.id = next_incident_id_++;
  inc.inject_time = now;
  inc.symptom = IncidentSymptom::kCodeDataAdjustment;
  inc.root_cause = RootCause::kUserCode;
  return inc;
}

void FaultInjector::ApplyToCluster(const Incident& incident, Cluster* cluster) {
  if (incident.faulty_machines.empty()) {
    return;
  }
  if (incident.root_cause == RootCause::kTransient) {
    // Transient faults (link flaps, connection resets) crash or stall the job
    // but leave no persistent machine-level signal for inspections to find;
    // stop-time checks come back clean and a plain reattempt recovers.
    return;
  }
  Machine& m = cluster->machine(incident.faulty_machines.front());
  const int gpu = incident.gpu_index >= 0 ? incident.gpu_index % m.num_gpus() : 0;
  ++m.incident_count;
  switch (incident.symptom) {
    case IncidentSymptom::kCudaError:
      m.gpu(gpu).dcgm_responsive = false;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kGpuUnavailable:
      m.gpu(gpu).available = false;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kGpuMemoryError:
      m.gpu(gpu).hbm_ok = false;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kInfinibandError:
      m.host().nic_up = false;
      m.host().packet_loss_rate = 0.4;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kOsKernelPanic:
      m.host().os_kernel_ok = false;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kDiskFault:
      m.host().disk_ok = false;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kInsufficientDiskSpace:
      m.host().free_disk_fraction = 0.01;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kCpuOverload:
      m.host().cpu_load = 0.99;
      m.set_state(MachineState::kDegraded);
      break;
    case IncidentSymptom::kCpuOom:
      m.host().free_host_mem_fraction = 0.005;
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kJobHang:
      // Defective CUDA cores block P2P ops without any host-visible signal
      // (case study in Sec. 5.2). The machine looks healthy to inspections.
      m.gpu(gpu).comm_defect = true;
      m.set_state(MachineState::kDegraded);
      break;
    case IncidentSymptom::kMfuDecline:
      // Half the fail-slow incidents are thermal (overheating is visible to
      // the GPU inspection, which correlates it with MFU degradation); the
      // rest are silent downclocks that only the aggregation analyzer's
      // multi-round voting can localize (Sec. 5.1).
      if (incident.gpu_index % 2 == 0) {
        m.gpu(gpu).temperature_c = 92.0;
      }
      m.gpu(gpu).clock_ratio = 0.55;
      m.set_state(MachineState::kDegraded);
      break;
    case IncidentSymptom::kNanValue:
      if (incident.root_cause == RootCause::kSdc) {
        m.gpu(gpu).sdc = true;
      }
      m.set_state(MachineState::kDegraded);
      break;
    case IncidentSymptom::kFilesystemMount:
    case IncidentSymptom::kHdfsError:
    case IncidentSymptom::kContainerError:
    case IncidentSymptom::kExternalServiceError:
      m.set_state(MachineState::kFaulty);
      break;
    case IncidentSymptom::kCodeDataAdjustment:
    case IncidentSymptom::kNumSymptoms:
      break;
  }
}

void FaultInjector::ClearFromCluster(const Incident& incident, Cluster* cluster) {
  for (MachineId id : incident.faulty_machines) {
    Machine& m = cluster->machine(id);
    if (m.state() == MachineState::kFaulty || m.state() == MachineState::kDegraded) {
      m.ResetHealth();
      m.set_state(MachineState::kActive);
    }
  }
}

}  // namespace byterobust
