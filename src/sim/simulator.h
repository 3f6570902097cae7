// Deterministic discrete-event simulator.
//
// The simulator is the substrate that replaces wall-clock time and the
// physical cluster in this reproduction. Events are ordered by (time,
// schedule order) so that two events at the same timestamp always fire in
// scheduling order, making every run bit-reproducible for a fixed seed.
//
// Performance architecture:
//   - Event payloads (std::function closures) live in a slab of reusable
//     nodes; dispatch moves — never copies — the payload out of the slab.
//   - The queue is one ordered map, std::map<SimTime, Bucket>. A bucket is
//     the intrusive FIFO chain, through the slab, of all pending events at
//     its timestamp, so same-time scheduling order is positional and needs
//     no sequence numbers or comparisons.
//   - Most events open a fresh timestamp (94% of fleet-mixed and 87% of
//     dense-month events), so the map holds about one bucket per pending
//     event and Schedule usually pays one O(log n) insert. Drained map nodes
//     are extracted and reused for new timestamps, so a fresh timestamp does
//     not allocate once the map has reached its peak size.
//   - Cancellation is O(1): EventIds carry the slab slot plus a generation
//     tag, and Cancel marks the node as a tombstone that is reclaimed (slot
//     recycled, closure released) when it reaches the head of the earliest
//     bucket. Stale ids — already-dispatched, already-cancelled, or from a
//     recycled slot — fail the generation check and leave no state behind,
//     so cancellation storage is bounded by the number of genuinely pending
//     events.
//
// Threading model: a Simulator and everything scheduled on it are owned by
// exactly one campaign worker thread — the seed-parallel pools in the CLI
// share *nothing* mutable per seed (each worker builds its own simulator,
// cluster view, and system stack). The class is deliberately unsynchronized;
// the only process-wide state a simulation touches is the immutable frozen
// template caches (SharedTopology/SharedBackupPlan, annotated in
// src/topology/parallelism.h) and the log-level atomic (src/common/log.h).

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/sim_time.h"

namespace byterobust {

// Handle for a scheduled event; can be used to cancel it before it fires.
// Encodes (slab slot, generation) so stale handles are rejected in O(1).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` after Now(). Negative delays clamp to zero
  // (the event fires "immediately", after already-queued events at Now()).
  EventId Schedule(SimDuration delay, std::function<void()> fn);

  // Schedules `fn` at an absolute time, which must be >= Now().
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  // Cancels a pending event. Returns true if the event existed and had not
  // fired yet. Cancelling an already-fired, already-cancelled or invalid id
  // is a no-op that returns false and stores nothing.
  bool Cancel(EventId id);

  // Runs until the event queue is empty or Stop() is called.
  void Run();

  // Runs events with time <= deadline, then advances the clock to exactly
  // `deadline` (even if no event fired there).
  void RunUntil(SimTime deadline);

  // Runs exactly one event if available; returns false when the queue is
  // empty. Useful for fine-grained tests.
  bool Step();

  // Requests that Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // True after Stop() until the next Run()/RunUntil() resets it. Lets
  // in-handler fast paths (batched stepping) honor a stop request the same
  // way the dispatch loop would.
  bool stop_requested() const { return stopped_; }

  // Returned by NextEventTime() when no live event is pending, and by
  // horizon() while running without a deadline.
  static constexpr SimTime kNoPendingEvent = INT64_MAX;

  // Timestamp of the earliest pending live event, or kNoPendingEvent.
  // Reclaims leading tombstones as a side effect (exactly what the next
  // dispatch would do), so peeking never changes observable behavior.
  SimTime NextEventTime();

  // Deadline of the innermost RunUntil() currently executing, or
  // kNoPendingEvent under Run(). Event handlers use it to avoid doing
  // inline work the dispatch loop would never have reached.
  SimTime horizon() const { return horizon_; }

  // Advances Now() to `when` without dispatching anything. `when` must not
  // precede Now() or overtake a pending live event — time only moves forward
  // and never skips scheduled work. This is the batched-stepping fast path:
  // a handler that knows nothing fires before `when` claims the interval
  // inline instead of paying one queue round-trip per step.
  void AdvanceTo(SimTime when);

  // Number of events dispatched so far.
  std::uint64_t events_dispatched() const { return dispatched_; }

  // Number of events still pending (including cancelled-but-unpopped ones).
  std::size_t pending_events() const { return queued_; }

  // Number of cancelled events whose queue entry has not been reclaimed yet.
  std::size_t cancelled_pending() const { return queued_ - live_; }

  // Total slab nodes ever allocated. Stays bounded by the peak number of
  // simultaneously pending events regardless of how many events are
  // scheduled, dispatched or cancelled over the simulator's lifetime.
  std::size_t slab_slots() const { return node_count_; }

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  // The slab grows in fixed chunks so expansion never moves existing nodes
  // (a flat vector would re-move every pending closure on reallocation).
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct EventNode {
    std::function<void()> fn;
    std::uint32_t gen = 1;
    std::uint32_t next = kNullIndex;  // FIFO chain in its bucket / free list
    bool active = false;              // scheduled and not yet popped
    bool cancelled = false;           // tombstone: skip + reclaim when popped
  };

  // FIFO chain of all pending events at one timestamp. `tail` is meaningful
  // only while `head` is not kNullIndex.
  struct Bucket {
    std::uint32_t head = kNullIndex;
    std::uint32_t tail = kNullIndex;
  };
  using BucketMap = std::map<SimTime, Bucket>;

  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  static std::uint32_t SlotOf(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t GenOf(EventId id) { return static_cast<std::uint32_t>(id >> 32); }

  EventNode& NodeAt(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t AllocateNode();
  void FreeNode(std::uint32_t slot);

  // The bucket at `when`, created (from a spare map node when one is kept)
  // if no event is pending at that time.
  Bucket& BucketAt(SimTime when);

  // Reclaims cancelled events at the front of the earliest bucket and drops
  // drained buckets; returns the bucket holding the next live event, or
  // buckets_.end() when the queue is empty. The single place both
  // DispatchNext and NextEventTime skip tombstones, so the two cannot drift.
  BucketMap::iterator LiveHead();

  bool DispatchNext();

  SimTime now_ = 0;
  SimTime horizon_ = kNoPendingEvent;
  std::uint64_t dispatched_ = 0;
  std::size_t queued_ = 0;  // pending events, including cancelled ones
  std::size_t live_ = 0;    // pending events that are not cancelled
  bool stopped_ = false;

  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::size_t node_count_ = 0;
  std::uint32_t free_node_ = kNullIndex;
  BucketMap buckets_;
  std::vector<BucketMap::node_type> spare_buckets_;  // drained, ready for reuse
};

}  // namespace byterobust

#endif  // SRC_SIM_SIMULATOR_H_
