// Cluster model: the set of machines serving one or more training jobs plus
// the blacklist of evicted machines. Warm-standby pool management lives in
// src/recovery; the cluster only tracks membership and health.
//
// Fleet mode (PR 5): machines, the blacklist and the health epoch live in a
// shared core so several Cluster objects can host concurrent jobs on one
// physical pool. The classic single-job constructor builds a root cluster
// that owns its core and all training slots; a *view* constructor carves a
// job-sized slot table out of a parent cluster's idle machines while sharing
// the parent's machine records, blacklist and health epoch. Components
// (TrainJob, Monitor, Diagnoser, RobustController) keep taking a plain
// `Cluster*` — a job handed its view sees only its own serving slots, while
// health mutations anywhere in the shared pool keep a single fleet-wide
// epoch, so cross-job phenomena (a ToR fault degrading machines of two jobs)
// are observable by both monitors.
//
// Threading model: a cluster core and every view carved from it belong to
// one campaign worker thread (the simulator that drives them is
// single-threaded; fleet-mode "sharing" is between jobs interleaved on that
// one thread, never between OS threads). Mutation wakers fire synchronously
// on the owning thread. Nothing here is locked, and the determinism lint +
// TSan gates exist to keep cross-thread state out of this layer.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/cluster/machine.h"
#include "src/topology/parallelism.h"

namespace byterobust {

class FaultDomains;
struct FaultDomainConfig;

// Tag type selecting the fleet-pool constructor: all machines start idle and
// the root owns no training slots (jobs carve views out of it).
struct FleetPoolTag {};
inline constexpr FleetPoolTag kFleetPool{};

class Cluster {
 public:
  // Creates `num_machines` active machines with `gpus_per_machine` GPUs each,
  // plus `num_spares` machines that start life outside the job (used to
  // refill training slots after evictions). The cluster owns its core and all
  // `num_machines` training slots (the classic single-job layout).
  Cluster(int num_machines, int gpus_per_machine, int num_spares = 0);

  // Fleet pool root: `total_machines` idle machines, zero training slots.
  // Job views carve their slot tables out of this pool.
  Cluster(FleetPoolTag, int total_machines, int gpus_per_machine);

  // Job view: shares `parent`'s machines/blacklist/health epoch and claims
  // `num_slots` idle machines (in id order) as its training slots. Throws if
  // the parent pool cannot supply that many idle machines.
  Cluster(Cluster& parent, int num_slots);

  ~Cluster();

  // Machines hold raw hooks into this cluster's health epoch, so the cluster
  // must never relocate.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_training_slots() const { return num_training_slots_; }
  int gpus_per_machine() const { return core_->gpus_per_machine; }
  std::size_t total_machines() const { return core_->machines.size(); }

  Machine& machine(MachineId id) { return *core_->machines.at(static_cast<std::size_t>(id)); }
  const Machine& machine(MachineId id) const {
    return *core_->machines.at(static_cast<std::size_t>(id));
  }

  // Machine currently serving training slot `slot` (slot indices are what the
  // Topology maps ranks onto; view slots are numbered from 0 within the
  // view). After a replacement, the slot points at the standby machine that
  // took over.
  MachineId MachineAtSlot(int slot) const { return slot_to_machine_.at(static_cast<std::size_t>(slot)); }
  int SlotOfMachine(MachineId id) const;  // -1 if not serving *this* cluster

  // Evicts the machine at `slot` (blacklists it) and installs `replacement`
  // into the slot. The replacement must not be blacklisted or in service.
  void ReplaceSlot(int slot, MachineId replacement);

  // Preemption support (fleet spare arbiter): removes the machine at `slot`
  // WITHOUT blacklisting it — the machine is healthy and is being transferred
  // to another job — and installs `replacement`. Returns the detached
  // machine, left in kIdle state for the claimant to install.
  MachineId DetachSlotMachine(int slot, MachineId replacement);

  // Marks a machine blacklisted without installing a replacement yet.
  void Blacklist(MachineId id);
  bool IsBlacklisted(MachineId id) const { return core_->blacklist.count(id) > 0; }
  const std::set<MachineId>& blacklist() const { return core_->blacklist; }

  // Adds a brand-new machine record (e.g. freshly provisioned standby);
  // returns its id.
  MachineId AddMachine();

  // Machines not serving, not blacklisted (candidates for standby pool or
  // rescheduling). Shared across views: a machine serving any job is not
  // idle.
  std::vector<MachineId> IdleMachines() const;

  // All machines currently serving this cluster's job, in slot order.
  std::vector<MachineId> ServingMachines() const { return slot_to_machine_; }

  // Same membership as ServingMachines() without the copy; hot paths (perf
  // model, inspections, fault sampling) iterate this instead.
  const std::vector<MachineId>& serving_slots() const { return slot_to_machine_; }

  // Count of serving machines whose state is kFaulty or kDegraded. Served
  // from the epoch-keyed health index, so repeated calls between mutations
  // are O(1).
  int UnhealthyServingCount() const;

  // -- health epoch + suspect index -----------------------------------------
  //
  // Every health mutation (fault injection, heal, slot swap, eviction,
  // restart, or any mutable Machine::gpu()/host() access) bumps a
  // monotonically increasing epoch shared by every view of the core.
  // Consumers key caches on it: the perf model's slowest-clock scan and the
  // inspection suspect index below are recomputed at most once per epoch
  // instead of once per query.

  std::uint64_t health_epoch() const { return core_->health_epoch.value; }

  // Registers a one-shot callback fired by the next health mutation (any
  // epoch bump, whichever view's machine mutated). The quiescent monitor uses
  // it to stop re-arming periodic inspection passes while the cluster is
  // provably healthy: instead of polling, it parks here and is re-armed on
  // demand. Single consumer *per view* — a new request replaces any pending
  // one on the same view; in a fleet each job's monitor parks on its own
  // view. The callback runs synchronously inside the mutating call (possibly
  // mid-mutation), so it must only *schedule* work, never read health
  // attributes directly.
  void RequestMutationWake(std::function<void()> waker) {
    mutation_waker_ = std::move(waker);
  }

  // Serving machines of *this* cluster whose health may deviate from nominal
  // (health_dirty()), in slot order. Machines absent from this list are
  // guaranteed nominal, so inspections iterate only these instead of the
  // whole cluster.
  const std::vector<MachineId>& SuspectServingMachines() const;

  // Bitmask over the same suspects, for word-parallel membership queries.
  const MachineSet& SuspectServingSet() const;

  // -- hierarchical fault domains -------------------------------------------

  // Builds the NIC -> ToR -> spine -> pod domain graph over the core's
  // current machine set and assigns every machine its domain path. Call once
  // on the root/pool cluster before carving views. Attaching is epoch-neutral:
  // a healthy graph changes nothing observable.
  void AttachFaultDomains(const FaultDomainConfig& config);

  // The shared graph, or nullptr on a bare cluster that was never given one
  // (unit tests and benches). Shared by every view of the core, like the
  // blacklist.
  FaultDomains* fault_domains() { return core_->domains.get(); }
  const FaultDomains* fault_domains() const { return core_->domains.get(); }

  // Congestion term for this view's serving set: the minimum degradation
  // factor over impaired domains whose machine band the serving set crosses
  // (see FaultDomains::CongestionFactorFor). 1.0 without a graph or without
  // impairment. Served from the epoch-keyed health index, so repeated calls
  // between mutations are O(1).
  double CongestionFactor() const;

 private:
  // State shared by a root cluster and every view carved from it.
  struct Core {
    int gpus_per_machine = 0;
    std::vector<std::unique_ptr<Machine>> machines;
    std::set<MachineId> blacklist;
    // Bumped by Cluster mutators and (through the bound hooks) by every
    // Machine state/health mutation; dispatches each member view's one-shot
    // waker.
    HealthEpoch health_epoch;
    // Root + views sharing this core, in registration order (root first).
    std::vector<Cluster*> members;
    // Hierarchical fault-domain graph (nullptr until AttachFaultDomains).
    std::unique_ptr<FaultDomains> domains;

    ~Core();  // defined in cluster.cc, where FaultDomains is complete
  };

  void RegisterWithCore();
  void FireMutationWakers();
  void InstallSlotMachine(int slot, MachineId replacement);
  void RefreshHealthIndex() const;

  std::shared_ptr<Core> core_;
  int num_training_slots_;
  std::vector<MachineId> slot_to_machine_;
  std::function<void()> mutation_waker_;  // one-shot, per view

  // Lazily rebuilt once per epoch on first query (mutations are rare next to
  // the per-step / per-inspection reads that consume the index).
  mutable std::uint64_t index_epoch_ = ~std::uint64_t{0};
  mutable std::vector<MachineId> suspect_serving_;
  mutable MachineSet suspect_set_;
  mutable int unhealthy_serving_ = 0;
  mutable double congestion_factor_ = 1.0;
};

}  // namespace byterobust

#endif  // SRC_CLUSTER_CLUSTER_H_
