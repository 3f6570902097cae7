// Hierarchical fault-domain topology (ROADMAP item 1): the physical failure
// structure above the flat machine list. Every machine sits under a path of
// nested domains — its host NIC, the ToR switch of its rack, the spine switch
// aggregating several racks, and the pod power domain feeding them — and
// correlated infrastructure faults strike a *domain*, degrading or killing
// every machine beneath it at once (spine flaps, pod power loss, link-level
// fail-slow with congestion backpressure on collectives).
//
// Machine ids are laid out rack-contiguously (the fleet allocator carves jobs
// from the lowest idle ids), so every domain covers one contiguous machine-id
// range; the fleet's switch storms strike these ToR bands.
//
// Domain health is tri-state (up / degraded / down) with a degradation factor
// for fail-slow links; any state change bumps the owning cluster's
// HealthEpoch, so the perf model, suspect index and quiescent monitor observe
// domain faults through the exact same cache-invalidation channel as
// per-machine health mutations.

#ifndef SRC_TOPOLOGY_FAULT_DOMAINS_H_
#define SRC_TOPOLOGY_FAULT_DOMAINS_H_

#include <vector>

#include "src/cluster/machine.h"
#include "src/common/sim_time.h"
#include "src/topology/parallelism.h"

namespace byterobust {

// Index into FaultDomains' domain table.
using DomainId = int;

// Domain levels, innermost first. Each machine's path holds exactly one
// domain per level.
enum class DomainLevel : int {
  kNic = 0,    // the machine's own host NIC (single-machine domain)
  kTor = 1,    // top-of-rack switch
  kSpine = 2,  // spine switch aggregating tors_per_spine racks
  kPod = 3,    // pod power domain feeding spines_per_pod spines
};
inline constexpr int kNumDomainLevels = 4;

const char* DomainLevelName(DomainLevel level);

enum class DomainState {
  kUp,        // nominal
  kDegraded,  // serving but impaired (flapping switch, congested link)
  kDown,      // hard-failed (power loss); machines beneath it are dead
};

// Shape of the domain tree over a machine pool. Division is by contiguous
// machine-id bands; ragged tails (a last rack with fewer machines) are fine.
struct FaultDomainConfig {
  int machines_per_tor = 6;
  int tors_per_spine = 4;
  int spines_per_pod = 2;
};

// One node of the domain tree.
struct Domain {
  DomainId id = -1;
  DomainLevel level = DomainLevel::kNic;
  int index = 0;         // index within its level
  DomainId parent = -1;  // -1 for pods (roots)
  // Contiguous machine-id range covered, [begin, end).
  MachineId machine_begin = 0;
  MachineId machine_end = 0;
  DomainState state = DomainState::kUp;
  // < 1.0 slows communication crossing this domain (fail-slow link); applied
  // multiplicatively by the perf model through Cluster::CongestionFactor().
  double degradation_factor = 1.0;
  SimTime state_since = 0;
};

class FaultDomains {
 public:
  // Builds the tree over machine ids [0, num_machines). Machines added later
  // (standby provisioning) clamp into the last domain of each level.
  FaultDomains(const FaultDomainConfig& config, int num_machines);

  FaultDomains(const FaultDomains&) = delete;
  FaultDomains& operator=(const FaultDomains&) = delete;

  // Installed by the owning Cluster so every SetState/Heal bumps the shared
  // health epoch. Standalone graphs (unit tests) keep nullptr.
  void BindHealthEpoch(HealthEpoch* epoch) { health_epoch_hook_ = epoch; }

  const FaultDomainConfig& config() const { return config_; }
  int num_machines() const { return num_machines_; }
  int num_domains() const { return static_cast<int>(domains_.size()); }
  int CountAtLevel(DomainLevel level) const;

  const Domain& domain(DomainId id) const {
    return domains_.at(static_cast<std::size_t>(id));
  }
  DomainId DomainIdAt(DomainLevel level, int index) const;
  const Domain& DomainAt(DomainLevel level, int index) const {
    return domain(DomainIdAt(level, index));
  }

  MachineId machine_begin(DomainId id) const { return domain(id).machine_begin; }
  MachineId machine_end(DomainId id) const { return domain(id).machine_end; }

  // Path of domain ids for `machine`, innermost (NIC) to outermost (pod).
  // Ids beyond the constructed range clamp into the last domain per level.
  std::vector<DomainId> PathOfMachine(MachineId machine) const;

  // Health transitions. Both bump the bound health epoch.
  void SetState(DomainId id, DomainState state, double degradation_factor, SimTime now);
  void Heal(DomainId id, SimTime now) { SetState(id, DomainState::kUp, 1.0, now); }

  bool AnyImpaired() const { return !impaired_.empty(); }
  // Impaired domain ids (state != kUp), ascending.
  const std::vector<DomainId>& impaired() const { return impaired_; }

  // Congestion term for a job whose serving machines are `serving`: the
  // minimum degradation factor over impaired domains whose machine range the
  // serving set *crosses* (members both inside and outside — collectives then
  // traverse the degraded link). 1.0 when nothing applies.
  double CongestionFactorFor(const std::vector<MachineId>& serving) const;

 private:
  FaultDomainConfig config_;
  int num_machines_;
  std::vector<Domain> domains_;
  // First domain id of each level (levels are id-contiguous), plus a
  // terminating total for CountAtLevel.
  int level_offset_[kNumDomainLevels + 1] = {};
  std::vector<DomainId> impaired_;  // ascending ids with state != kUp
  HealthEpoch* health_epoch_hook_ = nullptr;
};

}  // namespace byterobust

#endif  // SRC_TOPOLOGY_FAULT_DOMAINS_H_
