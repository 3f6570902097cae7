#include "src/cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "src/topology/fault_domains.h"

namespace byterobust {

Cluster::Core::~Core() = default;

void Cluster::RegisterWithCore() {
  core_->members.push_back(this);
  if (!core_->health_epoch.on_bump) {
    Core* core = core_.get();
    core_->health_epoch.on_bump = [core] {
      // Fire each member view's one-shot waker. Move-out before invoking so a
      // waker that itself mutates health (recursive bump) or re-parks sees a
      // clean slot; iterate by index because a waker may add a view.
      for (std::size_t i = 0; i < core->members.size(); ++i) {
        Cluster* member = core->members[i];
        if (member->mutation_waker_) {
          std::function<void()> w = std::move(member->mutation_waker_);
          member->mutation_waker_ = nullptr;
          w();
        }
      }
    };
  }
}

Cluster::Cluster(int num_machines, int gpus_per_machine, int num_spares)
    : core_(std::make_shared<Core>()), num_training_slots_(num_machines) {
  if (num_machines <= 0 || gpus_per_machine <= 0 || num_spares < 0) {
    throw std::invalid_argument("invalid cluster dimensions");
  }
  core_->gpus_per_machine = gpus_per_machine;
  RegisterWithCore();
  core_->machines.reserve(static_cast<std::size_t>(num_machines + num_spares));
  for (int i = 0; i < num_machines + num_spares; ++i) {
    core_->machines.push_back(std::make_unique<Machine>(i, gpus_per_machine));
    core_->machines.back()->BindHealthEpoch(&core_->health_epoch);
    if (i >= num_machines) {
      core_->machines.back()->set_state(MachineState::kIdle);
    }
  }
  slot_to_machine_.resize(static_cast<std::size_t>(num_machines));
  for (int i = 0; i < num_machines; ++i) {
    slot_to_machine_[static_cast<std::size_t>(i)] = i;
  }
}

Cluster::Cluster(FleetPoolTag, int total_machines, int gpus_per_machine)
    : core_(std::make_shared<Core>()), num_training_slots_(0) {
  if (total_machines <= 0 || gpus_per_machine <= 0) {
    throw std::invalid_argument("invalid fleet pool dimensions");
  }
  core_->gpus_per_machine = gpus_per_machine;
  RegisterWithCore();
  core_->machines.reserve(static_cast<std::size_t>(total_machines));
  for (int i = 0; i < total_machines; ++i) {
    core_->machines.push_back(std::make_unique<Machine>(i, gpus_per_machine));
    core_->machines.back()->BindHealthEpoch(&core_->health_epoch);
    core_->machines.back()->set_state(MachineState::kIdle);
  }
}

Cluster::Cluster(Cluster& parent, int num_slots)
    : core_(parent.core_), num_training_slots_(num_slots) {
  if (num_slots <= 0) {
    throw std::invalid_argument("view needs at least one training slot");
  }
  // Select before mutating anything: a failed carve must leave no trace — a
  // throwing constructor never runs its destructor, so registering with the
  // core (or flipping machines kActive) first would leave a dangling member
  // pointer behind the exception.
  std::vector<MachineId> selected;
  selected.reserve(static_cast<std::size_t>(num_slots));
  for (const auto& m : core_->machines) {
    if (static_cast<int>(selected.size()) == num_slots) {
      break;
    }
    if (m->state() == MachineState::kIdle && core_->blacklist.count(m->id()) == 0) {
      selected.push_back(m->id());
    }
  }
  if (static_cast<int>(selected.size()) != num_slots) {
    throw std::invalid_argument("fleet pool cannot supply the job's machine demand");
  }
  RegisterWithCore();
  slot_to_machine_ = std::move(selected);
  for (MachineId id : slot_to_machine_) {
    core_->machines[static_cast<std::size_t>(id)]->set_state(MachineState::kActive);
  }
  core_->health_epoch.Bump();  // serving membership changed
}

Cluster::~Cluster() {
  auto& members = core_->members;
  members.erase(std::remove(members.begin(), members.end(), this), members.end());
}

int Cluster::SlotOfMachine(MachineId id) const {
  for (std::size_t s = 0; s < slot_to_machine_.size(); ++s) {
    if (slot_to_machine_[s] == id) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

void Cluster::InstallSlotMachine(int slot, MachineId replacement) {
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  if (IsBlacklisted(replacement)) {
    throw std::invalid_argument("replacement machine is blacklisted");
  }
  Machine& incoming = machine(replacement);
  if (incoming.InService()) {
    throw std::invalid_argument("replacement machine already in service");
  }
  incoming.ResetHealth();
  incoming.set_state(MachineState::kActive);
  slot_to_machine_[static_cast<std::size_t>(slot)] = replacement;
}

void Cluster::ReplaceSlot(int slot, MachineId replacement) {
  // Validate before evicting the old machine so a bad replacement leaves the
  // slot untouched; InstallSlotMachine re-checks harmlessly.
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  if (IsBlacklisted(replacement)) {
    throw std::invalid_argument("replacement machine is blacklisted");
  }
  if (machine(replacement).InService()) {
    throw std::invalid_argument("replacement machine already in service");
  }
  const MachineId old = slot_to_machine_[static_cast<std::size_t>(slot)];
  Blacklist(old);
  machine(old).set_state(MachineState::kEvicted);
  InstallSlotMachine(slot, replacement);
  core_->health_epoch.Bump();  // serving membership changed
}

MachineId Cluster::DetachSlotMachine(int slot, MachineId replacement) {
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  const MachineId detached = slot_to_machine_[static_cast<std::size_t>(slot)];
  InstallSlotMachine(slot, replacement);
  machine(detached).set_state(MachineState::kIdle);
  core_->health_epoch.Bump();  // serving membership changed
  return detached;
}

void Cluster::Blacklist(MachineId id) {
  core_->blacklist.insert(id);
  machine(id).set_state(MachineState::kEvicted);
}

MachineId Cluster::AddMachine() {
  const MachineId id = static_cast<MachineId>(core_->machines.size());
  core_->machines.push_back(std::make_unique<Machine>(id, core_->gpus_per_machine));
  core_->machines.back()->BindHealthEpoch(&core_->health_epoch);
  core_->machines.back()->set_state(MachineState::kIdle);
  if (core_->domains != nullptr) {
    // Late-provisioned machines clamp into the graph's outermost bands.
    core_->machines.back()->set_domain_path(core_->domains->PathOfMachine(id));
  }
  return id;
}

void Cluster::AttachFaultDomains(const FaultDomainConfig& config) {
  core_->domains =
      std::make_unique<FaultDomains>(config, static_cast<int>(core_->machines.size()));
  core_->domains->BindHealthEpoch(&core_->health_epoch);
  for (const auto& m : core_->machines) {
    m->set_domain_path(core_->domains->PathOfMachine(m->id()));
  }
}

double Cluster::CongestionFactor() const {
  if (core_->domains == nullptr) {
    return 1.0;
  }
  RefreshHealthIndex();
  return congestion_factor_;
}

std::vector<MachineId> Cluster::IdleMachines() const {
  // Only truly idle spares: machines already provisioning (kStandbyInit),
  // sleeping in the warm pool (kStandbySleep) or claimed are not candidates.
  std::vector<MachineId> out;
  for (const auto& m : core_->machines) {
    if (m->state() == MachineState::kIdle && core_->blacklist.count(m->id()) == 0) {
      out.push_back(m->id());
    }
  }
  return out;
}

int Cluster::UnhealthyServingCount() const {
  RefreshHealthIndex();
  return unhealthy_serving_;
}

const std::vector<MachineId>& Cluster::SuspectServingMachines() const {
  RefreshHealthIndex();
  return suspect_serving_;
}

const MachineSet& Cluster::SuspectServingSet() const {
  RefreshHealthIndex();
  return suspect_set_;
}

void Cluster::RefreshHealthIndex() const {
  if (index_epoch_ == core_->health_epoch.value) {
    return;
  }
  suspect_serving_.clear();
  suspect_set_ = MachineSet(static_cast<int>(core_->machines.size()));
  unhealthy_serving_ = 0;
  for (MachineId id : slot_to_machine_) {
    const Machine& m = machine(id);
    if (m.health_dirty()) {
      suspect_serving_.push_back(id);
      suspect_set_.Insert(id);
    }
    const MachineState s = m.state();
    if (s == MachineState::kFaulty || s == MachineState::kDegraded) {
      ++unhealthy_serving_;
    }
  }
  congestion_factor_ = core_->domains != nullptr && core_->domains->AnyImpaired()
                           ? core_->domains->CongestionFactorFor(slot_to_machine_)
                           : 1.0;
  index_epoch_ = core_->health_epoch.value;
}

}  // namespace byterobust
