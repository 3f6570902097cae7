// Machine model: one multi-GPU host in the training cluster.

#ifndef SRC_CLUSTER_MACHINE_H_
#define SRC_CLUSTER_MACHINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/topology/parallelism.h"

namespace byterobust {

// Index into the cluster's fault-domain table (src/topology/fault_domains.h).
using DomainId = int;

// Shared mutation channel between a Cluster core and its Machines: a
// monotonically increasing health epoch plus a permanent dispatch hook. The
// owning Cluster installs `on_bump` to fire each member view's one-shot
// mutation waker (consumers that disarm their periodic work while the
// cluster is provably healthy — the quiescent monitor — park there and are
// re-armed by the next mutation). Each view's waker is cleared before being
// invoked, so a storm of mutations costs one call per parked consumer.
struct HealthEpoch {
  std::uint64_t value = 0;
  std::function<void()> on_bump;

  void Bump() {
    ++value;
    if (on_bump) {
      on_bump();
    }
  }
};

enum class MachineState {
  kActive,        // serving the training job
  kDegraded,      // serving, but with a gray fault (fail-slow, SDC, ...)
  kFaulty,        // a fault fired; job processes on it are dead or stuck
  kEvicted,       // removed from the job and blacklisted
  kIdle,          // platform spare, not yet provisioned for anything
  kStandbySleep,  // pre-validated warm standby in low-power sleep (Sec. 6.2)
  kStandbyInit,   // standby being provisioned (self-check, image, libraries)
};

const char* MachineStateName(MachineState state);

// Per-GPU health attributes polled by the monitor's inspection threads.
struct GpuHealth {
  double temperature_c = 55.0;  // nominal operating temperature
  bool dcgm_responsive = true;
  bool available = true;        // false => "GPU Unavailable"
  bool hbm_ok = true;           // false => GPU memory (HBM) error
  bool sdc = false;             // silent data corruption: wrong math, no signal
  bool comm_defect = false;     // defective CUDA cores blocking P2P (Sec. 5.2)
  double clock_ratio = 1.0;     // < 1.0 => thermal throttling / downclock
};

// Host/NIC health attributes.
struct HostHealth {
  bool nic_up = true;
  double packet_loss_rate = 0.0;
  bool switch_reachable = true;
  bool os_kernel_ok = true;     // false => kernel panic / Xid in dmesg
  bool disk_ok = true;
  double free_disk_fraction = 0.8;
  double cpu_load = 0.3;        // fraction of cores busy
  double free_host_mem_fraction = 0.7;
};

class Machine {
 public:
  Machine(MachineId id, int num_gpus);

  MachineId id() const { return id_; }
  int num_gpus() const { return num_gpus_; }

  MachineState state() const { return state_; }
  void set_state(MachineState state) {
    state_ = state;
    BumpMutationCounter();
  }
  bool InService() const {
    return state_ == MachineState::kActive || state_ == MachineState::kDegraded;
  }

  // Mutable health access conservatively marks the machine "health-dirty" and
  // bumps the owning cluster's health epoch: the caller *may* write through
  // the reference. A machine that is not dirty is guaranteed nominal, which
  // is what lets inspections and the perf model skip it without a scan.
  GpuHealth& gpu(int i) {
    MarkHealthDirty();
    return gpus_.at(static_cast<std::size_t>(i));
  }
  const GpuHealth& gpu(int i) const { return gpus_.at(static_cast<std::size_t>(i)); }
  HostHealth& host() {
    MarkHealthDirty();
    return host_;
  }
  const HostHealth& host() const { return host_; }

  // Resets all health attributes to nominal values (standby delivery,
  // post-repair return to the pool). Clears the dirty flag: nominal health
  // needs no inspection.
  void ResetHealth();

  // True if any GPU has an SDC flag set.
  bool HasSdc() const;

  // True when mutable health access happened since construction/ResetHealth,
  // i.e. the health attributes may deviate from nominal.
  bool health_dirty() const { return health_dirty_; }

  // Installed by the owning Cluster so every state/health mutation bumps the
  // cluster-wide health epoch (cache invalidation for the perf model and the
  // inspection suspect index) and fires the epoch's one-shot waker, if any.
  // Standalone machines (unit tests) keep nullptr.
  void BindHealthEpoch(HealthEpoch* epoch) { health_epoch_hook_ = epoch; }

  // Fault-domain path, innermost (host NIC) to outermost (pod power domain).
  // Assigned by Cluster::AttachFaultDomains; empty on a cluster without a graph.
  // Placement is static wiring, not a health attribute, so setting it neither
  // dirties health nor bumps the epoch.
  const std::vector<DomainId>& domain_path() const { return domain_path_; }
  void set_domain_path(std::vector<DomainId> path) { domain_path_ = std::move(path); }

  // Incremented whenever this machine is implicated in an incident; used by
  // campaign reports.
  int incident_count = 0;

 private:
  void BumpMutationCounter() {
    if (health_epoch_hook_ != nullptr) {
      health_epoch_hook_->Bump();
    }
  }
  void MarkHealthDirty() {
    health_dirty_ = true;
    BumpMutationCounter();
  }

  MachineId id_;
  int num_gpus_;
  MachineState state_ = MachineState::kActive;
  std::vector<GpuHealth> gpus_;
  HostHealth host_;
  std::vector<DomainId> domain_path_;
  bool health_dirty_ = false;
  HealthEpoch* health_epoch_hook_ = nullptr;
};

}  // namespace byterobust

#endif  // SRC_CLUSTER_MACHINE_H_
