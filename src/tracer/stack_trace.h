// Stack-trace representation: what the on-demand tracer (py-spy +
// flight-recorder in production, Sec. 7) captures from training processes.

#ifndef SRC_TRACER_STACK_TRACE_H_
#define SRC_TRACER_STACK_TRACE_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/topology/parallelism.h"

namespace byterobust {

struct StackFrame {
  std::string function;
  std::string file;
  int line = 0;

  bool operator==(const StackFrame&) const = default;
};

// An immutable stack shared by value: copies share the frame storage. A
// whole-pod snapshot names a handful of canned patterns (interned statics in
// stack_synth.cc) once per rank run (StackRun below), so neither synthesis
// nor aggregation touches one stack per process.
class StackTrace {
 public:
  StackTrace() = default;
  StackTrace(std::initializer_list<StackFrame> frames)
      : frames_(std::make_shared<const std::vector<StackFrame>>(frames)) {}
  explicit StackTrace(std::vector<StackFrame> frames)
      : frames_(std::make_shared<const std::vector<StackFrame>>(std::move(frames))) {}

  const std::vector<StackFrame>& frames() const {
    static const std::vector<StackFrame> kEmpty;
    return frames_ ? *frames_ : kEmpty;
  }

  // Canonical string form; aggregation groups stacks by exact key match
  // (paper Sec. 5.1 "aggregated into multiple groups via string matching").
  std::string Key() const;
  std::string ToString() const;

  // Copies of one interned stack compare equal by storage identity without
  // touching the frames; separately built stacks fall back to the frames.
  bool operator==(const StackTrace& other) const {
    return frames_ == other.frames_ || frames() == other.frames();
  }

 private:
  std::shared_ptr<const std::vector<StackFrame>> frames_;
};

// Which process in the pod's tree the stack came from. Root causes may live
// in subprocesses (data fetching, checkpointing), so the tracer captures all
// training-related processes, not just the trainer (Sec. 5.1).
enum class ProcessKind {
  kTrainer,
  kDataLoader,
  kCheckpointWriter,
};
inline constexpr std::size_t kNumProcessKinds = 3;

const char* ProcessKindName(ProcessKind kind);

// One process's stack: the per-rank form of a pod snapshot.
struct ProcessStack {
  Rank rank = 0;
  MachineId machine = 0;
  ProcessKind kind = ProcessKind::kTrainer;
  StackTrace stack;
};

// The run-length form: the `kind` processes of ranks [first, first + count)
// all show `*stack`. A 9,600-rank whole-pod snapshot is about a dozen runs
// instead of 28,800 ProcessStacks. `stack` is non-owning. The synthesizers
// point it at interned statics, which live for the whole program; the
// analyzer's per-rank adapter points it into the caller's ProcessStacks,
// which outlive the analysis.
struct StackRun {
  Rank first = 0;
  int count = 0;
  ProcessKind kind = ProcessKind::kTrainer;
  const StackTrace* stack = nullptr;
};

}  // namespace byterobust

#endif  // SRC_TRACER_STACK_TRACE_H_
