// Runtime Analyzer: data-driven over-eviction via stack-trace aggregation
// (paper Sec. 5).
//
// Three steps, mirroring Fig. 7: (1) the tracer has already parsed process
// trees and captured stacks from all training-related processes; (2) stacks
// are aggregated into groups by exact string matching — dominant groups are
// healthy, the rest are outliers; (3) the shared parallel group covering the
// outlier machines is isolated and over-evicted.
//
// The analysis works on run-length snapshots (StackRun): grouping, machine
// footprints and the verdict cost O(runs x groups + outlier machines), not
// O(processes). A group is (process kind, stack value): copies of one
// interned stack match by storage identity without touching the frames, and
// equal stacks built separately still share a group. The canonical key
// string is built once per group, for reporting and deterministic ordering.
// The per-rank overload packs ProcessStacks into runs and shares the core.

#ifndef SRC_ANALYZER_AGGREGATION_H_
#define SRC_ANALYZER_AGGREGATION_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/topology/parallelism.h"
#include "src/tracer/stack_trace.h"

namespace byterobust {

struct AggregationConfig {
  // A stack group is "dominant" (healthy) when its size is at least this
  // fraction of the largest group's size.
  double dominant_fraction = 0.5;
};

// A run of consecutive ids [first, first + count): ranks or machines.
struct IdRun {
  int first = 0;
  int count = 0;

  int last() const { return first + count - 1; }
  bool operator==(const IdRun&) const = default;
};

// One aggregated stack group.
struct StackGroup {
  std::string key;
  StackTrace representative;
  int rank_count = 0;               // processes in the group
  std::vector<IdRun> rank_runs;     // snapshot order, adjacent runs merged
  std::vector<IdRun> machine_runs;  // sorted, overlapping and adjacent runs merged
  bool healthy = false;
};

struct AggregationResult {
  std::vector<StackGroup> groups;  // sorted by size, descending
  std::vector<MachineId> outlier_machines;

  // The shared parallel group of the outliers (step 3), when one covers them.
  bool found_group = false;
  ParallelGroup isolated_group;

  // Machines the controller should (over-)evict: the isolated group's
  // machines, or the bare outliers when no single group covers them.
  std::vector<MachineId> machines_to_evict;
};

class AggregationAnalyzer {
 public:
  explicit AggregationAnalyzer(const AggregationConfig& config = {}) : config_(config) {}

  AggregationResult Analyze(const std::vector<StackRun>& runs, const Topology& topology) const;

  // Per-rank adapter: packs each process kind's consecutive ranks with
  // equal stacks into runs. Each stack's machine must be its rank's machine
  // in `topology` (std::invalid_argument otherwise).
  AggregationResult Analyze(const std::vector<ProcessStack>& stacks,
                            const Topology& topology) const;

 private:
  AggregationConfig config_;
};

// Fail-slow localization (Sec. 5.1 last paragraph): aggregation repeats every
// 10 seconds; each round flags the parallel group with the most outliers, and
// after `rounds` rounds the group with the highest cumulative flag count is
// the degrader.
class FailSlowVoter {
 public:
  explicit FailSlowVoter(int rounds = 5) : rounds_needed_(rounds) {}

  // Feeds one aggregation round. Returns true once enough rounds accumulated.
  bool AddRound(const AggregationResult& result);

  bool Ready() const { return rounds_seen_ >= rounds_needed_; }

  // The winning group (highest cumulative flags). Only valid when Ready().
  bool Decide(GroupKind* kind, int* index) const;

  int rounds_seen() const { return rounds_seen_; }

 private:
  int rounds_needed_;
  int rounds_seen_ = 0;
  std::map<std::pair<int, int>, int> flags_;  // (kind, index) -> count
};

}  // namespace byterobust

#endif  // SRC_ANALYZER_AGGREGATION_H_
