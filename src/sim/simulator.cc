#include "src/sim/simulator.h"

#include <stdexcept>
#include <utility>

#include "src/common/log.h"

namespace byterobust {

Simulator::Simulator() { SetLogClock(&now_); }

Simulator::~Simulator() { ClearLogClock(&now_); }

EventId Simulator::Schedule(SimDuration delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    throw std::invalid_argument("ScheduleAt in the past");
  }
  const std::uint32_t slot = AllocateNode();
  EventNode& node = NodeAt(slot);
  node.fn = std::move(fn);
  node.active = true;
  node.cancelled = false;
  node.next = kNullIndex;
  Bucket& bucket = BucketAt(when);
  if (bucket.head == kNullIndex) {
    bucket.head = slot;
  } else {
    NodeAt(bucket.tail).next = slot;
  }
  bucket.tail = slot;
  ++queued_;
  ++live_;
  return MakeId(slot, node.gen);
}

bool Simulator::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const std::uint32_t slot = SlotOf(id);
  if (slot >= node_count_) {
    return false;
  }
  EventNode& node = NodeAt(slot);
  if (!node.active || node.cancelled || node.gen != GenOf(id)) {
    return false;
  }
  node.cancelled = true;
  node.fn = nullptr;  // release the closure eagerly
  --live_;
  return true;
}

std::uint32_t Simulator::AllocateNode() {
  if (free_node_ != kNullIndex) {
    const std::uint32_t slot = free_node_;
    free_node_ = NodeAt(slot).next;
    return slot;
  }
  if (node_count_ >= static_cast<std::size_t>(kNullIndex) - 1) {
    throw std::length_error("Simulator event slab exhausted");
  }
  if (node_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkSize));
  }
  return static_cast<std::uint32_t>(node_count_++);
}

void Simulator::FreeNode(std::uint32_t slot) {
  EventNode& node = NodeAt(slot);
  node.active = false;
  node.cancelled = false;
  ++node.gen;  // invalidate outstanding EventIds for this slot
  node.next = free_node_;
  free_node_ = slot;
}

Simulator::Bucket& Simulator::BucketAt(SimTime when) {
  const auto next = buckets_.lower_bound(when);
  if (next != buckets_.end() && next->first == when) {
    return next->second;
  }
  if (spare_buckets_.empty()) {
    return buckets_.emplace_hint(next, when, Bucket{})->second;
  }
  BucketMap::node_type spare = std::move(spare_buckets_.back());
  spare_buckets_.pop_back();
  spare.key() = when;  // drained, so its chain is already empty
  return buckets_.insert(next, std::move(spare))->second;
}

Simulator::BucketMap::iterator Simulator::LiveHead() {
  while (!buckets_.empty()) {
    const auto earliest = buckets_.begin();
    Bucket& bucket = earliest->second;
    while (bucket.head != kNullIndex && NodeAt(bucket.head).cancelled) {
      const std::uint32_t slot = bucket.head;
      bucket.head = NodeAt(slot).next;
      FreeNode(slot);
      --queued_;
    }
    if (bucket.head != kNullIndex) {
      return earliest;
    }
    spare_buckets_.push_back(buckets_.extract(earliest));
  }
  return buckets_.end();
}

bool Simulator::DispatchNext() {
  const auto head = LiveHead();
  if (head == buckets_.end()) {
    return false;
  }
  now_ = head->first;
  Bucket& bucket = head->second;
  const std::uint32_t slot = bucket.head;
  bucket.head = NodeAt(slot).next;
  std::function<void()> fn = std::move(NodeAt(slot).fn);
  FreeNode(slot);
  --queued_;
  --live_;
  ++dispatched_;
  // No slab/bucket references may be held across the callback: it is free to
  // schedule (growing the slab) and its bucket may be reclaimed afterwards.
  fn();
  return true;
}

SimTime Simulator::NextEventTime() {
  const auto head = LiveHead();
  return head == buckets_.end() ? kNoPendingEvent : head->first;
}

void Simulator::AdvanceTo(SimTime when) {
  if (when < now_) {
    throw std::invalid_argument("AdvanceTo in the past");
  }
  if (NextEventTime() < when) {
    throw std::invalid_argument("AdvanceTo would skip a pending event");
  }
  now_ = when;
}

void Simulator::Run() {
  stopped_ = false;
  const SimTime saved_horizon = horizon_;
  horizon_ = kNoPendingEvent;
  while (!stopped_ && DispatchNext()) {
  }
  horizon_ = saved_horizon;
}

void Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  const SimTime saved_horizon = horizon_;
  horizon_ = deadline;
  while (!stopped_ && NextEventTime() <= deadline && DispatchNext()) {
  }
  horizon_ = saved_horizon;
  if (now_ < deadline) {
    now_ = deadline;
  }
}

bool Simulator::Step() { return DispatchNext(); }

}  // namespace byterobust
