#include "src/core/scenario.h"

#include <algorithm>
#include <cmath>

#include "src/common/log.h"

namespace byterobust {

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config),
      system_(std::make_unique<ByteRobustSystem>(config.system)),
      sys_(system_.get()),
      rng_(config.system.seed ^ 0xC0FFEEULL),
      domain_rng_(config.system.seed ^ 0xD0AA11ULL) {
  injector_ = std::make_unique<FaultInjector>(config.injector, rng_.Fork());
  sys_->controller().SetRestartListener(
      [this](ResolutionMechanism mechanism) { OnRestart(mechanism); });
}

Scenario::Scenario(const ScenarioConfig& config, ByteRobustSystem* system)
    : config_(config),
      sys_(system),
      rng_(system->config().seed ^ 0xC0FFEEULL),
      domain_rng_(system->config().seed ^ 0xD0AA11ULL) {
  injector_ = std::make_unique<FaultInjector>(config.injector, rng_.Fork());
  sys_->controller().SetRestartListener(
      [this](ResolutionMechanism mechanism) { OnRestart(mechanism); });
}

void Scenario::Begin() {
  sys_->Start();
  ScheduleNextFailure();
  if (config_.planned_updates > 0) {
    ScheduleNextUpdate(0);
  }
  if (config_.domain_faults.mean_gap > 0) {
    ScheduleNextDomainFault();
  }
}

void Scenario::Run() {
  Begin();
  sys_->sim().RunUntil(config_.duration);
}

void Scenario::ScheduleNextFailure() {
  const SimDuration delay =
      injector_->NextFailureDelay(sys_->cluster().num_training_slots());
  sys_->sim().Schedule(delay, [this] { InjectFailure(); });
}

void Scenario::ScheduleNextUpdate(int update_index) {
  if (update_index >= config_.planned_updates) {
    return;
  }
  // Spread updates across the campaign with jitter.
  const double mean_gap =
      static_cast<double>(config_.duration) / (config_.planned_updates + 1);
  const SimDuration delay = static_cast<SimDuration>(rng_.Exponential(mean_gap));
  sys_->sim().Schedule(delay, [this, update_index] {
    CodeVersion v;
    v.id = next_version_id_++;
    // Efficiency approaches final_efficiency geometrically: early updates buy
    // the big MFU leaps, later ones refine (Fig. 11's staircase).
    const double progress =
        static_cast<double>(update_index + 1) / static_cast<double>(config_.planned_updates);
    const double target = 1.0 + (config_.final_efficiency - 1.0) *
                                    (1.0 - std::pow(1.0 - progress, 2.0));
    v.efficiency = std::max(sys_->job().current_version().efficiency, target);
    v.buggy = rng_.Bernoulli(config_.update_buggy_prob);
    v.bug_latency = config_.bug_latency;
    v.urgent = rng_.Bernoulli(config_.update_urgent_prob);
    v.description = "engineering update #" + std::to_string(v.id);
    ++stats_.updates_submitted;
    if (v.buggy) {
      ++stats_.buggy_updates;
    }
    submitted_versions_[v.id] = {v, 0};
    sys_->hot_updates().Submit(v);
    ScheduleNextUpdate(update_index + 1);
  });
}

void Scenario::InjectFailure() {
  if (sys_->job().state() != JobRunState::kRunning) {
    // Hold fault arrivals while the job is down; machines fail under load.
    sys_->sim().Schedule(Minutes(2), [this] { InjectFailure(); });
    return;
  }
  // serving_slots() is the same slot-ordered membership as ServingMachines()
  // without materialising a copy per incident.
  const Incident incident =
      injector_->SampleFailure(sys_->sim().Now(), sys_->cluster().serving_slots());
  ++stats_.incidents_injected;
  ++stats_.injected_by_symptom[static_cast<int>(incident.symptom)];
  BR_LOG_INFO("scenario", "injecting %s", incident.ToString().c_str());

  FaultInjector::ApplyToCluster(incident, &sys_->cluster());
  sys_->controller().NotifyIncidentInjected(incident);
  TrackIncident(incident);
  ApplyEffect(incident);
  ScheduleNextFailure();
}

void Scenario::ScheduleNextDomainFault() {
  const SimDuration delay = static_cast<SimDuration>(
      domain_rng_.Exponential(static_cast<double>(config_.domain_faults.mean_gap)));
  sys_->sim().Schedule(delay, [this] { InjectDomainFault(); });
}

void Scenario::InjectDomainFault() {
  FaultDomains* domains = sys_->cluster().fault_domains();
  const DomainFaultStreamConfig& cfg = config_.domain_faults;
  const DomainLevel level = DomainFaultLevel(cfg.kind);
  const int count = domains->CountAtLevel(level);
  const DomainId id =
      domains->DomainIdAt(level, static_cast<int>(domain_rng_.UniformInt(0, count - 1)));
  if (domains->domain(id).state != DomainState::kUp) {
    ScheduleNextDomainFault();  // still faulted from a previous draw; skip
    return;
  }
  const bool transient = domain_rng_.Bernoulli(cfg.transient_fraction);
  const SimTime now = sys_->sim().Now();
  const DomainFaultEffect effect = DomainInjector::ApplyToDomain(
      cfg.kind, id, cfg.degradation_factor, &sys_->cluster(), now);
  // Ground truth for the per-job incident: only the machines actually serving
  // this job's slots (idle spares under the domain degrade silently).
  const std::vector<MachineId> serving = DomainInjector::ServingUnder(sys_->cluster(), id);
  ++stats_.domain_faults_injected;
  const int blast_event =
      domain_blast_.RecordInjection(level, cfg.kind, static_cast<int>(effect.affected.size()),
                                    serving.empty() ? 0 : 1, transient, now);
  BR_LOG_INFO("scenario", "domain fault %s on %s #%d: %d machine(s), %d serving%s",
              DomainFaultKindName(cfg.kind), DomainLevelName(level),
              domains->domain(id).index, static_cast<int>(effect.affected.size()),
              static_cast<int>(serving.size()), transient ? " (transient)" : "");

  std::uint64_t incident_id = 0;
  if (cfg.kind != DomainFaultKind::kLinkFailSlow && !serving.empty()) {
    Incident inc;
    // Domain incident ids live above every other generator's range (injector
    // small ids, buggy updates 1000000+, fleet storms 5000000+).
    inc.id = 7000000 + next_domain_fault_id_;
    inc.symptom = DomainFaultSymptom(cfg.kind);
    inc.root_cause = transient ? RootCause::kTransient : RootCause::kInfrastructure;
    inc.faulty_machines = serving;
    inc.inject_time = now;
    incident_id = inc.id;
    ++stats_.incidents_injected;
    ++stats_.injected_by_symptom[static_cast<int>(inc.symptom)];
    for (MachineId m : serving) {
      ++sys_->cluster().machine(m).incident_count;
    }
    sys_->controller().NotifyIncidentInjected(inc);
    // Track for refail-on-restart like injector incidents, but *without*
    // TrackIncident's transient_heal timer: domain faults heal on their own
    // hold through HealDomainFault, which also restores the domain node.
    ActiveIncident active;
    active.incident = inc;
    active_.push_back(active);
    if (cfg.kind == DomainFaultKind::kPowerLoss &&
        sys_->job().state() == JobRunState::kRunning) {
      // Powered-off machines take their training processes down with them.
      sys_->job().Crash();
    }
    // Spine flaps stay gray: the network inspection sees the packet loss and
    // the controller's debounce decides eviction vs reattempt.
  }

  const double ettr_at_inject = sys_->ettr().CumulativeEttr(now);
  const SimDuration hold = transient ? cfg.transient_hold : cfg.persistent_hold;
  sys_->sim().Schedule(hold, [this, id, incident_id, blast_event, transient, ettr_at_inject] {
    HealDomainFault(id, incident_id, transient);
    domain_blast_.RecordHeal(blast_event,
                             sys_->ettr().CumulativeEttr(sys_->sim().Now()) - ettr_at_inject);
  });
  ++next_domain_fault_id_;
  ScheduleNextDomainFault();
}

void Scenario::HealDomainFault(DomainId domain, std::uint64_t incident_id, bool transient) {
  if (transient && incident_id != 0) {
    for (ActiveIncident& a : active_) {
      if (a.incident.id == incident_id) {
        a.healed = true;  // the flap self-recovered; IsResolved now passes
      }
    }
  }
  DomainInjector::HealDomain(config_.domain_faults.kind, domain, &sys_->cluster(),
                             sys_->sim().Now());
}

void Scenario::TrackIncident(const Incident& incident) {
  ActiveIncident active;
  active.incident = incident;
  active_.push_back(active);
  if (incident.root_cause == RootCause::kTransient) {
    const std::uint64_t id = incident.id;
    sys_->sim().Schedule(config_.transient_heal, [this, id] {
      for (ActiveIncident& a : active_) {
        if (a.incident.id == id) {
          a.healed = true;
          FaultInjector::ClearFromCluster(a.incident, &sys_->cluster());
        }
      }
    });
  }
}

void Scenario::InjectExternal(const Incident& incident) {
  ++stats_.incidents_injected;
  ++stats_.injected_by_symptom[static_cast<int>(incident.symptom)];
  BR_LOG_INFO("scenario", "external incident %s", incident.ToString().c_str());
  sys_->controller().NotifyIncidentInjected(incident);
  TrackIncident(incident);
  // A job that is already down keeps the ground truth (re-detection after the
  // restart flows through the normal inspection paths) but takes no fresh
  // process-level effect.
  if (sys_->job().state() == JobRunState::kRunning) {
    ApplyEffect(incident);
  }
}

Rank Scenario::CulpritRankFor(const Incident& incident) const {
  const Topology& topo = sys_->job().topology();
  if (!incident.faulty_machines.empty()) {
    const int slot = sys_->cluster().SlotOfMachine(incident.faulty_machines.front());
    if (slot >= 0) {
      const int gpu = std::max(incident.gpu_index, 0) % topo.config().gpus_per_machine;
      return slot * topo.config().gpus_per_machine + gpu;
    }
  }
  // User-code hang: deterministic pseudo-random rank derived from the id.
  return static_cast<Rank>(incident.id % static_cast<std::uint64_t>(topo.world_size()));
}

void Scenario::ApplyEffect(const Incident& incident) {
  TrainJob& job = sys_->job();
  switch (incident.symptom) {
    case IncidentSymptom::kJobHang:
      job.Hang(CulpritRankFor(incident));
      break;
    case IncidentSymptom::kMfuDecline:
      // No direct job action: the perf model picks the throttled clock up on
      // the next step, and the monitor sees the MFU slide.
      break;
    case IncidentSymptom::kNanValue:
      job.SetNanLoss(true);
      break;
    case IncidentSymptom::kCodeDataAdjustment:
      break;  // manual restarts flow through the hot-update manager
    default:
      job.Crash();  // explicit fail-stop failure
      break;
  }
}

bool Scenario::IsResolved(const ActiveIncident& active) const {
  const Incident& inc = active.incident;
  if (inc.root_cause == RootCause::kTransient) {
    return active.healed;
  }
  if (inc.root_cause == RootCause::kUserCode) {
    if (active.buggy_version_id >= 0) {
      return !sys_->job().HasVersion(active.buggy_version_id);
    }
    return false;  // resolved explicitly on rollback/human restarts
  }
  // Infrastructure / SDC: resolved once every faulty machine is out.
  for (MachineId m : inc.faulty_machines) {
    if (!sys_->cluster().IsBlacklisted(m)) {
      return false;
    }
  }
  return true;
}

void Scenario::OnRestart(ResolutionMechanism mechanism) {
  // A rollback (or a human intervention) fixes latent user-code faults.
  const bool code_fixed = mechanism == ResolutionMechanism::kRollback ||
                          mechanism == ResolutionMechanism::kUnresolvedHuman;

  // Detonate latent bugs in freshly applied updates.
  const CodeVersion& current = sys_->job().current_version();
  if (current.buggy) {
    bool already_tracked = false;
    for (const ActiveIncident& a : active_) {
      if (a.buggy_version_id == current.id) {
        already_tracked = true;
      }
    }
    if (!already_tracked) {
      Incident inc;
      inc.id = 1000000 + static_cast<std::uint64_t>(current.id);
      inc.symptom = IncidentSymptom::kCudaError;  // e.g. illegal memory access
      inc.root_cause = RootCause::kUserCode;
      inc.inject_time = sys_->sim().Now();
      ActiveIncident active;
      active.incident = inc;
      active.buggy_version_id = current.id;
      active_.push_back(active);
      ++stats_.incidents_injected;
      ++stats_.injected_by_symptom[static_cast<int>(inc.symptom)];
    }
  }

  // Drop resolved incidents; re-manifest the survivors.
  std::vector<ActiveIncident> survivors;
  const std::uint64_t generation = ++refail_generation_;
  for (ActiveIncident& a : active_) {
    if (a.incident.root_cause == RootCause::kUserCode && a.buggy_version_id < 0 && code_fixed) {
      continue;  // the rollback reverted whatever was broken
    }
    if (IsResolved(a)) {
      continue;
    }
    survivors.push_back(a);
  }
  active_ = std::move(survivors);

  for (const ActiveIncident& a : active_) {
    const Incident inc = a.incident;
    const SimDuration delay = inc.root_cause == RootCause::kUserCode &&
                                      a.buggy_version_id >= 0
                                  ? config_.bug_latency
                                  : config_.refail_delay;
    sys_->sim().Schedule(delay, [this, inc, generation] {
      if (generation != refail_generation_) {
        return;  // superseded by a newer restart
      }
      if (sys_->job().state() != JobRunState::kRunning) {
        return;
      }
      bool still_active = false;
      for (const ActiveIncident& a2 : active_) {
        if (a2.incident.id == inc.id && !IsResolved(a2)) {
          still_active = true;
        }
      }
      if (!still_active) {
        return;
      }
      ++stats_.refails;
      BR_LOG_INFO("scenario", "unresolved %s re-manifests", inc.ToString().c_str());
      // If the controller already closed its episode (it believed the issue
      // fixed), re-register the ground truth so the new episode attributes
      // the recurring anomaly to the right incident.
      if (sys_->controller().episodes_open() == 0) {
        sys_->controller().NotifyIncidentInjected(inc);
      }
      ApplyEffect(inc);
    });
  }

  // Re-land engineering updates a rollback stripped (after team review; a
  // buggy update returns fixed). Capped so a pathological loop cannot form.
  for (auto& [original_id, entry] : submitted_versions_) {
    auto& [version, attempts] = entry;
    if (attempts >= 3 || sys_->job().HasVersion(version.id)) {
      continue;
    }
    bool bug_still_live = false;
    for (const ActiveIncident& a : active_) {
      if (a.buggy_version_id == original_id) {
        bug_still_live = true;  // its bug is the active incident; wait
      }
    }
    if (bug_still_live) {
      continue;
    }
    ++attempts;
    CodeVersion fixed = version;
    fixed.id = next_version_id_++;  // a fresh id: the old (buggy) one stays dead
    fixed.buggy = false;
    fixed.urgent = false;
    fixed.description += " (re-landed after review)";
    version = fixed;  // future HasVersion checks track the re-landed id
    const CodeVersion to_submit = fixed;
    sys_->sim().Schedule(Hours(4), [this, to_submit] {
      if (!sys_->job().HasVersion(to_submit.id)) {
        sys_->hot_updates().Submit(to_submit);
      }
    });
  }
}

}  // namespace byterobust
