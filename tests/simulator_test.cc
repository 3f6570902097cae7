// Unit tests for the discrete-event simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace byterobust {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(-Seconds(10), [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, ScheduleAtPastThrows) {
  Simulator sim;
  sim.Schedule(Seconds(2), [] {});
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(Seconds(1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidOrTwiceIsNoop) {
  Simulator sim;
  const EventId id = sim.Schedule(Seconds(1), [] {});
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(10), [&] { ++fired; });
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Seconds(5));
  sim.RunUntil(Seconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Seconds(20));
}

TEST(SimulatorTest, EventsScheduledDuringRunAreDispatched) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(Seconds(1), [&] {
    times.push_back(sim.Now());
    sim.Schedule(Seconds(1), [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Seconds(1));
  EXPECT_EQ(times[1], Seconds(2));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A later Run resumes with the remaining event.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepDispatchesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, DispatchCountAndPending) {
  Simulator sim;
  sim.Schedule(Seconds(1), [] {});
  sim.Schedule(Seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(sim.events_dispatched(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(Seconds(1), [&] { fired = true; });
  sim.Schedule(Seconds(2), [&] {});
  sim.Cancel(id);
  sim.RunUntil(Seconds(3));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(SimulatorTest, CancelOfDispatchedIdIsRejectedAndStoresNothing) {
  Simulator sim;
  const EventId id = sim.Schedule(Seconds(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

// Regression for the old unordered_set design, where cancelling an
// already-dispatched id inserted a permanent entry: repeated schedule /
// dispatch / cancel cycles must leave no pending state and must keep
// recycling the same slab slot instead of growing memory.
TEST(SimulatorTest, CancellingDispatchedIdsInALoopStaysBounded) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    const EventId id = sim.Schedule(Seconds(1), [&] { ++fired; });
    sim.Run();
    EXPECT_FALSE(sim.Cancel(id));
  }
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.slab_slots(), 1u) << "dispatch must recycle slab slots";
}

TEST(SimulatorTest, CancelledEventsAreReclaimedWhenTheirTimeArrives) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Seconds(i), [] {}));
  }
  for (EventId id : ids) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_EQ(sim.cancelled_pending(), 100u);
  sim.Run();
  EXPECT_EQ(sim.events_dispatched(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

// Schedule/cancel churn with live traffic must reuse slots rather than grow
// the slab proportionally to the number of cancellations.
TEST(SimulatorTest, ScheduleCancelChurnReusesSlabSlots) {
  Simulator sim;
  for (int i = 0; i < 10000; ++i) {
    const EventId id = sim.Schedule(Seconds(1), [] {});
    EXPECT_TRUE(sim.Cancel(id));
    sim.RunUntil(sim.Now() + Seconds(2));  // reclaims the tombstone
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_LE(sim.slab_slots(), 2u);
}

TEST(SimulatorTest, StaleIdOfReusedSlotDoesNotCancelNewEvent) {
  Simulator sim;
  const EventId stale = sim.Schedule(Seconds(1), [] {});
  sim.Run();
  bool fired = false;
  const EventId fresh = sim.Schedule(Seconds(1), [&] { fired = true; });
  EXPECT_NE(stale, fresh);  // same slot, different generation
  EXPECT_FALSE(sim.Cancel(stale));
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, SameTimestampOrderSurvivesInterleavedCancels) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.Schedule(Seconds(5), [&order, i] { order.push_back(i); }));
  }
  // Cancel the odd events; the even ones must still fire in schedule order.
  for (int i = 1; i < 10; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(SimulatorTest, EventScheduledAtNowDuringDispatchFiresAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(5), [&] {
    order.push_back(0);
    // Same timestamp as the two already-queued events below: it was
    // scheduled later, so it must fire after them.
    sim.Schedule(0, [&] { order.push_back(3); });
  });
  sim.Schedule(Seconds(5), [&] { order.push_back(1); });
  sim.Schedule(Seconds(5), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, NextEventTimePeeksEarliestLiveEvent) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPendingEvent);
  const EventId early = sim.Schedule(Seconds(2), [] {});
  sim.Schedule(Seconds(5), [] {});
  EXPECT_EQ(sim.NextEventTime(), Seconds(2));
  // Cancelling the head exposes the next live event (tombstones reclaimed).
  sim.Cancel(early);
  EXPECT_EQ(sim.NextEventTime(), Seconds(5));
  sim.Run();
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPendingEvent);
}

TEST(SimulatorTest, AdvanceToMovesClockWithoutDispatching) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Seconds(10), [&] { fired = true; });
  sim.AdvanceTo(Seconds(7));
  EXPECT_EQ(sim.Now(), Seconds(7));
  EXPECT_FALSE(fired);
  // Advancing exactly to the pending event's time is allowed (nothing is
  // skipped); overtaking it is not, and time cannot move backwards.
  sim.AdvanceTo(Seconds(10));
  EXPECT_THROW(sim.AdvanceTo(Seconds(11)), std::invalid_argument);
  EXPECT_THROW(sim.AdvanceTo(Seconds(5)), std::invalid_argument);
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, HorizonTracksRunUntilDeadline) {
  Simulator sim;
  EXPECT_EQ(sim.horizon(), Simulator::kNoPendingEvent);
  SimTime seen_horizon = 0;
  sim.Schedule(Seconds(1), [&] { seen_horizon = sim.horizon(); });
  sim.RunUntil(Seconds(30));
  EXPECT_EQ(seen_horizon, Seconds(30));
  EXPECT_EQ(sim.horizon(), Simulator::kNoPendingEvent);

  sim.Schedule(Seconds(1), [&] { seen_horizon = sim.horizon(); });
  sim.Run();
  EXPECT_EQ(seen_horizon, Simulator::kNoPendingEvent);
}

TEST(SimulatorTest, StopRequestVisibleInsideHandler) {
  Simulator sim;
  bool requested_inside = false;
  sim.Schedule(Seconds(1), [&] {
    sim.Stop();
    requested_inside = sim.stop_requested();
  });
  bool later_fired = false;
  sim.Schedule(Seconds(2), [&] { later_fired = true; });
  sim.Run();
  EXPECT_TRUE(requested_inside);
  EXPECT_FALSE(later_fired);
}

TEST(SimulatorTest, ManyDistinctTimestampsDispatchInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> times;
  // A deterministic shuffle of distinct timestamps exercises the ordered
  // timestamp map (every event creates and drains its own bucket).
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = Seconds((i * 613) % 1000);
    sim.ScheduleAt(t, [&times, &sim] { times.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(times.size(), 1000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Differential test: a seeded random mix of operations runs against the
// simulator and against a reference model — a std::multimap keyed by
// (time, schedule sequence) whose entries stay in place as tombstones when
// cancelled and are reclaimed only from the front, exactly when the
// simulator looks for its next live event. Dispatch order, Now(),
// pending_events() and cancelled_pending() must agree after every operation.
class SimulatorDifferential {
 public:
  explicit SimulatorDifferential(std::uint64_t seed) : rng_(seed) {}

  void RunOps(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::int64_t pick = rng_.UniformInt(0, 99);
      // Lean towards dispatching once many events are pending, so the model
      // stays small and the mix keeps reaching the drained-queue edge.
      const bool crowded = model_.size() > 48;
      if (pick < (crowded ? 20 : 45)) {
        ScheduleSomewhere();
      } else if (pick < (crowded ? 35 : 60)) {
        CancelSomething();
      } else if (pick < 75) {
        const bool expect = HasLive();
        EXPECT_EQ(sim_.Step(), expect);
      } else if (pick < 88) {
        const SimTime deadline = model_now_ + rng_.UniformInt(0, 40);
        sim_.RunUntil(deadline);
        EXPECT_LT(deadline, ModelNextTime()) << "RunUntil left due work pending";
        model_now_ = std::max(model_now_, deadline);
      } else if (pick < 94) {
        const SimTime next = ModelNextTime();
        const SimTime limit = next == Simulator::kNoPendingEvent ? model_now_ + 50 : next;
        const SimTime when = rng_.UniformInt(model_now_, limit);
        sim_.AdvanceTo(when);
        model_now_ = when;
      } else {
        EXPECT_EQ(sim_.NextEventTime(), ModelNextTime());
      }
      CheckCounters();
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "diverged at operation " << op;
        return;
      }
    }
    sim_.Run();
    EXPECT_FALSE(HasLive());
    CheckCounters();
  }

  std::uint64_t dispatched() const { return dispatched_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, schedule seq)
  struct Entry {
    EventId id;
    std::uint64_t tag;
    bool spawns;  // its handler schedules one more event at Now()
    bool cancelled = false;
  };

  void ScheduleSomewhere() {
    const std::int64_t kind = rng_.UniformInt(0, 2);
    SimTime when = model_now_;
    if (kind == 1 && !model_.empty()) {
      // A timestamp that already has a bucket.
      when = std::next(model_.begin(), rng_.UniformInt(0, static_cast<std::int64_t>(model_.size()) - 1))->first.first;
    } else if (kind == 2) {
      // A timestamp nothing is pending at.
      do {
        when = model_now_ + rng_.UniformInt(1, 200);
      } while (PendingAt(when));
    }
    ScheduleAt(when, rng_.Bernoulli(0.2));
  }

  void ScheduleAt(SimTime when, bool spawns) {
    const std::uint64_t tag = next_tag_++;
    const EventId id = sim_.ScheduleAt(when, [this, tag] { OnDispatch(tag); });
    model_.emplace(Key{when, next_seq_++}, Entry{id, tag, spawns});
    live_.emplace(id, Key{when, next_seq_ - 1});
  }

  void OnDispatch(std::uint64_t tag) {
    Reclaim();
    ASSERT_FALSE(model_.empty()) << "dispatched tag " << tag << " from an empty model";
    const auto front = model_.begin();
    ASSERT_EQ(front->second.tag, tag) << "dispatch order diverged";
    ASSERT_EQ(sim_.Now(), front->first.first);
    const Entry entry = front->second;
    model_now_ = front->first.first;
    live_.erase(entry.id);
    retired_.push_back(entry.id);
    model_.erase(front);
    ++dispatched_;
    EXPECT_EQ(sim_.pending_events(), model_.size());
    if (entry.spawns) {
      ScheduleAt(model_now_, /*spawns=*/false);
    }
  }

  void CancelSomething() {
    EventId id = kInvalidEventId;
    bool expect = false;
    if (!live_.empty() && rng_.Bernoulli(0.6)) {
      id = std::next(live_.begin(), rng_.UniformInt(0, static_cast<std::int64_t>(live_.size()) - 1))->first;
      expect = true;
    } else if (!retired_.empty()) {
      // Dispatched, cancelled, or stale after its slot was recycled.
      id = retired_[static_cast<std::size_t>(rng_.UniformInt(0, static_cast<std::int64_t>(retired_.size()) - 1))];
    }
    EXPECT_EQ(sim_.Cancel(id), expect);
    if (expect) {
      model_.find(live_.at(id))->second.cancelled = true;
      live_.erase(id);
      retired_.push_back(id);
    }
  }

  // Drops tombstones from the front, as the simulator does whenever it
  // looks for its next live event.
  void Reclaim() {
    while (!model_.empty() && model_.begin()->second.cancelled) {
      model_.erase(model_.begin());
    }
  }

  SimTime ModelNextTime() {
    Reclaim();
    return model_.empty() ? Simulator::kNoPendingEvent : model_.begin()->first.first;
  }

  bool HasLive() { return ModelNextTime() != Simulator::kNoPendingEvent; }

  bool PendingAt(SimTime when) const {
    const auto it = model_.lower_bound(Key{when, 0});
    return it != model_.end() && it->first.first == when;
  }

  void CheckCounters() const {
    EXPECT_EQ(sim_.Now(), model_now_);
    EXPECT_EQ(sim_.pending_events(), model_.size());
    std::size_t cancelled = 0;
    for (const auto& [key, entry] : model_) {
      cancelled += entry.cancelled ? 1 : 0;
    }
    EXPECT_EQ(sim_.cancelled_pending(), cancelled);
  }

  Rng rng_;
  Simulator sim_;
  std::multimap<Key, Entry> model_;
  std::map<EventId, Key> live_;
  std::vector<EventId> retired_;
  SimTime model_now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_tag_ = 0;
  std::uint64_t dispatched_ = 0;
};

TEST(SimulatorTest, RandomOperationsMatchMultimapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    SimulatorDifferential diff(seed);
    diff.RunOps(5000);
    EXPECT_GT(diff.dispatched(), 1000u);
  }
}

}  // namespace
}  // namespace byterobust
