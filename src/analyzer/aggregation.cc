#include "src/analyzer/aggregation.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace byterobust {

namespace {

// Sorts `runs` by first id and merges overlapping or adjacent runs.
void MergeRuns(std::vector<IdRun>* runs) {
  std::sort(runs->begin(), runs->end(),
            [](const IdRun& a, const IdRun& b) { return a.first < b.first; });
  std::size_t merged = 0;
  for (const IdRun& run : *runs) {
    if (merged > 0 && run.first <= (*runs)[merged - 1].last() + 1) {
      IdRun& prev = (*runs)[merged - 1];
      prev.count = std::max(prev.last(), run.last()) - prev.first + 1;
    } else {
      (*runs)[merged++] = run;
    }
  }
  runs->resize(merged);
}

}  // namespace

AggregationResult AggregationAnalyzer::Analyze(const std::vector<StackRun>& runs,
                                               const Topology& topology) const {
  AggregationResult result;

  // Step 2: group runs by exact (kind, stack). Subprocess stacks participate
  // too; a wedged dataloader on one machine forms its own singleton group.
  // A snapshot has a handful of groups, so a linear scan finds a run's group
  // without hashing, and copies of one interned stack compare by identity.
  std::vector<ProcessKind> group_kinds;
  for (const StackRun& run : runs) {
    if (run.count <= 0) {
      continue;
    }
    std::size_t g = 0;
    while (g < result.groups.size() &&
           (group_kinds[g] != run.kind || !(result.groups[g].representative == *run.stack))) {
      ++g;
    }
    if (g == result.groups.size()) {
      group_kinds.push_back(run.kind);
      result.groups.emplace_back();
      result.groups.back().representative = *run.stack;
    }
    StackGroup& group = result.groups[g];
    group.rank_count += run.count;
    if (!group.rank_runs.empty() && group.rank_runs.back().last() + 1 == run.first) {
      group.rank_runs.back().count += run.count;
    } else {
      group.rank_runs.push_back({run.first, run.count});
    }
  }
  if (result.groups.empty()) {
    return result;
  }

  for (std::size_t i = 0; i < result.groups.size(); ++i) {
    StackGroup& group = result.groups[i];
    group.key = std::string(ProcessKindName(group_kinds[i])) + "|" + group.representative.Key();
    // Ranks fill machines in order, so a run of ranks sits on exactly the
    // machines from its first rank's to its last rank's.
    for (const IdRun& ranks : group.rank_runs) {
      const MachineId first = topology.MachineOfRank(ranks.first);
      group.machine_runs.push_back({first, topology.MachineOfRank(ranks.last()) - first + 1});
    }
    MergeRuns(&group.machine_runs);
  }
  std::sort(result.groups.begin(), result.groups.end(),
            [](const StackGroup& a, const StackGroup& b) {
              if (a.rank_count != b.rank_count) {
                return a.rank_count > b.rank_count;
              }
              return a.key < b.key;  // deterministic tie-break
            });

  // Dominant groups are healthy; subprocess groups covering every machine
  // (idle loaders/writers) are dominant by construction. A machine is an
  // outlier if *any* of its processes shows an outlier stack, even if other
  // processes on it look healthy.
  const int max_size = result.groups.front().rank_count;
  std::vector<IdRun> outliers;
  for (StackGroup& g : result.groups) {
    g.healthy = static_cast<double>(g.rank_count) >=
                config_.dominant_fraction * static_cast<double>(max_size);
    if (!g.healthy) {
      outliers.insert(outliers.end(), g.machine_runs.begin(), g.machine_runs.end());
    }
  }
  MergeRuns(&outliers);
  for (const IdRun& run : outliers) {
    for (MachineId m = run.first; m <= run.last(); ++m) {
      result.outlier_machines.push_back(m);
    }
  }
  if (result.outlier_machines.empty()) {
    return result;
  }

  // Step 3: shared parallel group of the outliers.
  result.found_group = topology.FindCoveringGroup(result.outlier_machines,
                                                  &result.isolated_group);
  if (result.found_group) {
    result.machines_to_evict = topology.MachinesOfGroup(result.isolated_group);
  } else {
    result.machines_to_evict = result.outlier_machines;
  }
  return result;
}

AggregationResult AggregationAnalyzer::Analyze(const std::vector<ProcessStack>& stacks,
                                               const Topology& topology) const {
  // Each process kind extends its own latest run, so a snapshot that
  // interleaves kinds (a rank's dataloader, then its writer, then the next
  // rank's dataloader) still packs into a few runs per kind. Runs of one
  // kind stay in snapshot order, and every group holds a single kind, so
  // each group sees its ranks in snapshot order.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::array<std::size_t, kNumProcessKinds> latest;
  latest.fill(kNone);
  std::vector<StackRun> runs;
  for (const ProcessStack& ps : stacks) {
    if (ps.machine != topology.MachineOfRank(ps.rank)) {
      throw std::invalid_argument("process stack machine differs from its rank's machine");
    }
    std::size_t& last = latest[static_cast<std::size_t>(ps.kind)];
    if (last != kNone) {
      StackRun& run = runs[last];
      if (run.first + run.count == ps.rank && *run.stack == ps.stack) {
        ++run.count;
        continue;
      }
    }
    last = runs.size();
    runs.push_back(StackRun{ps.rank, 1, ps.kind, &ps.stack});
  }
  return Analyze(runs, topology);
}

bool FailSlowVoter::AddRound(const AggregationResult& result) {
  ++rounds_seen_;
  if (result.found_group) {
    const auto key = std::make_pair(static_cast<int>(result.isolated_group.kind),
                                    result.isolated_group.index);
    ++flags_[key];
  }
  return Ready();
}

bool FailSlowVoter::Decide(GroupKind* kind, int* index) const {
  if (flags_.empty()) {
    return false;
  }
  auto best = flags_.begin();
  for (auto it = flags_.begin(); it != flags_.end(); ++it) {
    if (it->second > best->second) {
      best = it;
    }
  }
  *kind = static_cast<GroupKind>(best->first.first);
  *index = best->first.second;
  return true;
}

}  // namespace byterobust
