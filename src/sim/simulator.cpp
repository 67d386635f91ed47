#include "sim/simulator.hpp"

#include <algorithm>

namespace weakset {

Simulator::~Simulator() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
}

// ---------------------------------------------------------------------------
// Slot slab + heap (per shard)

std::uint32_t Simulator::acquire_slot(ShardState& shard, InlineFunc fn) {
  if (shard.free_head != kNoSlot) {
    const std::uint32_t slot = shard.free_head;
    shard.free_head = shard.slots[slot].next_free;
    shard.slots[slot].fn = std::move(fn);
    return slot;
  }
  assert(shard.slots.size() < kNoSlot && "event slab exhausted");
  shard.slots.push_back(Slot{std::move(fn), 0, kNoSlot});
  return static_cast<std::uint32_t>(shard.slots.size() - 1);
}

void Simulator::release_slot(ShardState& shard, std::uint32_t slot) noexcept {
  // Bump the generation so stale heap entries and timer tokens referring to
  // the finished occupant can never match the next one.
  ++shard.slots[slot].gen;
  shard.slots[slot].next_free = shard.free_head;
  shard.free_head = slot;
}

void Simulator::cancel_slot(std::uint32_t shard_index, std::uint32_t slot,
                            std::uint32_t gen) noexcept {
  assert((!in_window_ || shard_index == shardctx::current) &&
         "timers may only be cancelled from their own shard mid-window");
  ShardState& shard = shards_[shard_index];
  if (slot >= shard.slots.size() || shard.slots[slot].gen != gen) {
    return;  // already ran
  }
  // Invalidate the queued heap entry; the slot itself is reclaimed (and the
  // callable destroyed) when that entry surfaces at the top of the heap —
  // exactly when the shared_ptr<bool> scheme used to discard it.
  ++shard.slots[slot].gen;
}

void Simulator::push_entry(ShardState& shard, SimTime at, std::uint32_t slot) {
  shard.queue.push_back(
      HeapEntry{at, shard.next_seq++, slot, shard.slots[slot].gen});
  std::push_heap(shard.queue.begin(), shard.queue.end(), later);
}

bool Simulator::pop_top(ShardState& shard, InlineFunc& fn, SimTime* at) {
  std::pop_heap(shard.queue.begin(), shard.queue.end(), later);
  const HeapEntry entry = shard.queue.back();
  shard.queue.pop_back();
  Slot& slot = shard.slots[entry.slot];
  if (slot.gen != entry.gen) {
    // Cancelled: destroy the callable and reclaim the slot silently —
    // cancelled events neither run nor advance the clock. The generation
    // was already bumped by cancel_slot, so reclaim without another bump.
    slot.fn.reset();
    slot.next_free = shard.free_head;
    shard.free_head = entry.slot;
    return false;
  }
  assert(entry.at >= shard.clock);
  // Move the callable out and free the slot *before* running it: the
  // callback may schedule new events into the very slot it occupied.
  fn = std::move(slot.fn);
  release_slot(shard, entry.slot);
  *at = entry.at;
  return true;
}

// ---------------------------------------------------------------------------
// Scheduling

void Simulator::schedule(Duration delay, InlineFunc fn) {
  assert(delay >= Duration::zero());
  schedule_at(now() + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime at, InlineFunc fn) {
  ShardState& shard = current_shard();
  assert(at >= shard.clock);
  push_entry(shard, at, acquire_slot(shard, std::move(fn)));
}

void Simulator::schedule_on(std::uint32_t shard, Duration delay,
                            InlineFunc fn) {
  assert(delay >= Duration::zero());
  if (!sharded_ || shard == shardctx::current) {
    schedule(delay, std::move(fn));
    return;
  }
  assert(shard < shards_.size());
  const SimTime at = now() + delay;
  if (in_window_) {
    // Mid-window: only the sender's own outbox may be touched; the driver
    // moves the message into the destination heap at the barrier.
    current_shard().outbox[shard].push_back(Pending{at, std::move(fn)});
    return;
  }
  // Driver context (setup, a serial event, between windows): enqueue
  // directly. A send into the destination's past — possible only for
  // sub-lookahead delays, e.g. a local call issued by a serially-homed
  // process — is delivered at the destination's current clock.
  ShardState& destination = shards_[shard];
  const SimTime effective = at < destination.clock ? destination.clock : at;
  push_entry(destination, effective,
             acquire_slot(destination, std::move(fn)));
}

Simulator::TimerToken Simulator::schedule_cancellable(Duration delay,
                                                      InlineFunc fn) {
  ShardState& shard = current_shard();
  const std::uint32_t slot = acquire_slot(shard, std::move(fn));
  push_entry(shard, shard.clock + delay, slot);
  return TimerToken{this, shardctx::current, slot, shard.slots[slot].gen};
}

namespace detail {
Detached run_detached(Task<void> task) { co_await std::move(task); }
}  // namespace detail

void Simulator::spawn(Task<void> task) {
  auto detached = detail::run_detached(std::move(task));
  schedule(Duration::zero(), [handle = detached.handle] { handle.resume(); });
}

// ---------------------------------------------------------------------------
// Sharded execution

void Simulator::configure_shards(std::uint32_t shards, std::uint32_t workers,
                                 Duration lookahead) {
  assert(!sharded_ && "configure_shards may be called at most once");
  assert(shards >= 1);
  assert(lookahead >= Duration::zero());
  assert(shards_.size() == 1 && shards_[0].queue.empty() &&
         shards_[0].next_seq == 0 &&
         "configure_shards must precede all scheduling");
  sharded_ = true;
  regular_ = shards;
  lookahead_ = lookahead;
  worker_count_ = std::clamp<std::uint32_t>(workers, 1, shards);
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(shards) + 1);  // last = serial
  for (ShardState& shard : shards_) {
    shard.outbox.resize(static_cast<std::size_t>(shards) + 1);
  }
  // Worker class 0 (and the serial shard) run on the driver thread; classes
  // 1..W-1 get their own threads. Shard s is pinned to class s % W for the
  // life of the run, keeping thread_local pool ownership stable.
  for (std::uint32_t cls = 1; cls < worker_count_; ++cls) {
    workers_.emplace_back([this, cls] { worker_loop(cls); });
  }
}

void Simulator::assign_node_shard(std::uint64_t node_raw,
                                  std::uint32_t shard) {
  assert(shard < (sharded_ ? regular_ : 1u));
  if (node_shards_.size() <= node_raw) node_shards_.resize(node_raw + 1, 0);
  node_shards_[node_raw] = shard;
}

void Simulator::worker_loop(std::uint32_t worker_class) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock{mu_};
      cv_start_.wait(lock,
                     [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    run_shard_class(worker_class);
    {
      const std::lock_guard<std::mutex> lock{mu_};
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }
}

void Simulator::run_shard_class(std::uint32_t worker_class) {
  for (std::uint32_t s = worker_class; s < regular_; s += worker_count_) {
    const ShardGuard guard{s};
    ShardState& shard = shards_[s];
    [[maybe_unused]] std::size_t steps = 0;  // read only when assert() is live
    while (!shard.queue.empty()) {
      const SimTime top = shard.queue.front().at;
      if (window_inclusive_ ? top > window_horizon_
                            : top >= window_horizon_) {
        break;
      }
      InlineFunc fn;
      SimTime at = shard.clock;
      if (!pop_top(shard, fn, &at)) continue;  // cancelled: silent skip
      shard.clock = at;
      ++shard.processed;
      fn();
      assert(++steps < kDefaultMaxEvents && "runaway window (livelock?)");
    }
  }
}

void Simulator::run_window(SimTime horizon, bool inclusive) {
  window_horizon_ = horizon;
  window_inclusive_ = inclusive;
  in_window_ = true;
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      remaining_ = static_cast<std::uint32_t>(workers_.size());
      ++epoch_;
    }
    cv_start_.notify_all();
    run_shard_class(0);
    std::unique_lock<std::mutex> lock{mu_};
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  } else {
    run_shard_class(0);
  }
  in_window_ = false;
  drain_outboxes();
}

void Simulator::drain_outboxes() {
  // Fixed (dst, src) drain order: barrier delivery assigns destination
  // sequence numbers, so the order must be a function of the schedule alone
  // — never of worker count or thread timing.
  for (std::uint32_t dst = 0; dst < shards_.size(); ++dst) {
    ShardState& to = shards_[dst];
    for (std::uint32_t src = 0; src < shards_.size(); ++src) {
      std::vector<Pending>& box = shards_[src].outbox[dst];
      for (Pending& pending : box) {
        // Conservative delivery: a message that undercut the lookahead (a
        // zero-latency link, a local call from a foreign-homed process)
        // arrives at the destination's current clock, never in its past.
        const SimTime at = pending.at < to.clock ? to.clock : pending.at;
        push_entry(to, at, acquire_slot(to, std::move(pending.fn)));
      }
      box.clear();
    }
  }
}

bool Simulator::step_sharded(SimTime cap) {
  SimTime t_regular = SimTime::max();
  for (std::uint32_t s = 0; s < regular_; ++s) {
    t_regular = std::min(t_regular, next_event_time(shards_[s]));
  }
  const SimTime t_serial = next_event_time(shards_[regular_]);
  if (std::min(t_regular, t_serial) > cap ||
      std::min(t_regular, t_serial) == SimTime::max()) {
    return false;
  }
  if (t_serial <= t_regular) {
    // Global-state event (topology mutation, world churn): run it alone,
    // with every worker quiesced. Ties go to the serial shard — a fixed,
    // worker-count-independent rule that orders, say, a crash before
    // same-instant node events.
    const ShardGuard guard{regular_};
    ShardState& serial = shards_[regular_];
    InlineFunc fn;
    SimTime at = serial.clock;
    if (pop_top(serial, fn, &at)) {
      serial.clock = at;
      ++serial.processed;
      fn();
    }
    return true;
  }
  SimTime horizon;
  bool inclusive;
  if (lookahead_ == Duration::zero()) {
    // Zero-latency links: degenerate single-instant windows. Cross-shard
    // sends at the same timestamp surface at the barrier and execute in the
    // next window at the same instant (a delta cycle), in fixed drain order.
    horizon = t_regular;
    inclusive = true;
  } else {
    // Conservative lookahead: no cross-shard message sent from an event at
    // time >= t_regular can arrive before t_regular + lookahead, so every
    // event strictly below that horizon is safe to run now. The horizon is
    // also capped at the next serial event (it may mutate global state) and
    // at the caller's deadline.
    horizon = t_regular + lookahead_;
    inclusive = false;
    if (t_serial < horizon) horizon = t_serial;
    if (cap != SimTime::max() && cap + Duration::nanos(1) < horizon) {
      horizon = cap + Duration::nanos(1);
    }
  }
  run_window(horizon, inclusive);
  return true;
}

// ---------------------------------------------------------------------------
// Driving

bool Simulator::step_classic() {
  ShardState& shard = shards_[0];
  while (!shard.queue.empty()) {
    InlineFunc fn;
    SimTime at = shard.clock;
    if (!pop_top(shard, fn, &at)) continue;  // cancelled: silent skip
    shard.clock = at;
    ++shard.processed;
    fn();
    return true;
  }
  return false;
}

bool Simulator::step() {
  return sharded_ ? step_sharded(SimTime::max()) : step_classic();
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  assert(n < max_events && "simulation exceeded max_events (livelock?)");
  return n;
}

std::size_t Simulator::run_until(SimTime deadline, std::size_t max_events) {
  std::size_t n = 0;
  if (sharded_) {
    while (n < max_events && step_sharded(deadline)) ++n;
    assert(n < max_events && "simulation exceeded max_events (livelock?)");
    for (ShardState& shard : shards_) {
      shard.clock = std::max(shard.clock, deadline);
    }
    return n;
  }
  ShardState& shard = shards_[0];
  while (n < max_events && !shard.queue.empty() &&
         shard.queue.front().at <= deadline) {
    InlineFunc fn;
    SimTime at = shard.clock;
    if (!pop_top(shard, fn, &at)) continue;  // cancelled: silent skip
    shard.clock = at;
    ++shard.processed;
    fn();
    ++n;
  }
  assert(n < max_events && "simulation exceeded max_events (livelock?)");
  shard.clock = std::max(shard.clock, deadline);
  return n;
}

}  // namespace weakset
