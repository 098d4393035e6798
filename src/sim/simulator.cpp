#include "sim/simulator.hpp"

#include <stdexcept>

#include "sim/stats.hpp"
#include "snap/format.hpp"

namespace aroma::sim {

EventHandle Simulator::schedule_at(Time when, Callback&& fn) {
  return schedule_at(when, current_category_, std::move(fn));
}

EventHandle Simulator::schedule_at(Time when, EventCategory category,
                                   Callback&& fn) {
  if (when < now_) when = now_;
  const std::uint64_t id = next_id_++;
  const EventQueue::Ref ref = queue_.push(
      when, next_seq_++, id, {category, trace_ctx_}, std::move(fn));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return EventHandle{id, ref.slot};
}

EventHandle Simulator::schedule_in(Time delay, Callback&& fn) {
  if (delay.is_negative()) delay = Time::zero();
  return schedule_at(now_ + delay, current_category_, std::move(fn));
}

EventHandle Simulator::schedule_in(Time delay, EventCategory category,
                                   Callback&& fn) {
  if (delay.is_negative()) delay = Time::zero();
  return schedule_at(now_ + delay, category, std::move(fn));
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  if (queue_.cancel({h.slot_, h.id_})) {
    ++cancelled_;
    return true;
  }
  ++stale_rejects_;
  return false;
}

Simulator::PendingEventInfo Simulator::pending_event_info(EventHandle h) const {
  PendingEventInfo info;
  if (!h.valid()) return info;
  if (queue_.lookup({h.slot_, h.id_}, info.when, info.seq)) {
    info.valid = true;
    info.id = h.id_;
  }
  return info;
}

std::size_t Simulator::clear_pending() {
  const std::size_t n = queue_.size();
  queue_.clear();
  return n;
}

EventHandle Simulator::restore_event(Time when, std::uint64_t seq,
                                     std::uint64_t id, EventCategory category,
                                     Callback&& fn) {
  const EventQueue::Ref ref =
      queue_.push(when, seq, id, {category, 0}, std::move(fn));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return EventHandle{id, ref.slot};
}

void Simulator::restore_state(Time now, std::uint64_t next_seq,
                              std::uint64_t next_id, std::uint64_t executed,
                              std::uint64_t cancelled,
                              std::uint64_t stale_rejects,
                              std::size_t peak_pending) {
  now_ = now;
  next_seq_ = next_seq;
  next_id_ = next_id;
  executed_ = executed;
  cancelled_ = cancelled;
  stale_rejects_ = stale_rejects;
  peak_pending_ = peak_pending;
}

void Simulator::attach_event_trace(TraceHot* trace) {
  if (trace_ != nullptr && trace_ != trace) {
    throw std::logic_error(
        "Simulator: the event trace slot is held by another consumer");
  }
  trace_ = trace;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Move the callback out before invoking: the event may schedule more
  // events, mutating the queue under us.
  Callback fn;
  EventQueue::EventMeta meta;
  std::uint64_t seq, id;
  bool from_train;
  now_ = queue_.pop_min(fn, meta, seq, id, from_train);
  ++executed_;
  if (trace_ != nullptr) {
    TraceHot& h = *trace_;
    const std::int64_t t = now_.count();
    TraceRecord& r = h.ring[static_cast<std::size_t>(h.total) & h.mask];
    r.t_ns = t;
    r.kind = 0;
    r.code = static_cast<std::uint16_t>(meta.category);
    r.shard = h.shard;
    r.a = id;
    r.b = seq;
    ++h.total;
    if (t == h.last_t_ns) {
      if (++h.run_len == h.stall_run_limit) {
        h.slow->on_trace_stall(now_, h.run_len);
      }
    } else {
      h.last_t_ns = t;
      h.run_len = 1;
    }
    if (t >= h.next_wake_ns) h.slow->on_trace_wake(now_);
  }
  // The event's category and causal context hold while it executes, so
  // anything it schedules (or any span it opens) inherits its cause.
  current_category_ = meta.category;
  trace_ctx_ = meta.trace_ctx;
  if (profiler_ == nullptr) {
    fn();
  } else {
    profiler_->record_execute(meta.category, from_train);
    if (profiler_->timing_enabled()) {
      WallTimer timer;
      fn();
      profiler_->record_wall(meta.category, timer.elapsed_sec());
    } else {
      fn();
    }
  }
  current_category_ = EventCategory::kNone;
  trace_ctx_ = 0;
  return true;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.min_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Time initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTimer::arm(Time delay) {
  pending_ = sim_.schedule_in(delay, category_, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm(period_);
  });
}

void PeriodicTimer::stop() {
  if (running_) {
    running_ = false;
    sim_.cancel(pending_);
  }
}

void PeriodicTimer::save(snap::SectionWriter& w) const {
  w.b(running_);
  w.duration(period_);
  const Simulator::PendingEventInfo info = sim_.pending_event_info(pending_);
  w.b(info.valid);
  if (info.valid) {
    w.time_delta(info.when);
    w.u64(info.seq);
    w.u64(info.id);
  }
}

void PeriodicTimer::restore(snap::SectionReader& r) {
  // Only valid after Simulator::clear_pending(): the warmup-armed event is
  // already gone, so the stale handle is overwritten, never cancelled
  // (cancelling would bump the stale-reject counter and break bit-equality
  // with the uninterrupted run).
  running_ = r.b();
  period_ = sim::Time::ns(r.i64());
  pending_ = EventHandle{};
  if (r.b()) {
    const Time when = r.time_delta();
    const std::uint64_t seq = r.u64();
    const std::uint64_t id = r.u64();
    pending_ = sim_.restore_event(when, seq, id, category_, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm(period_);
    });
  }
}

}  // namespace aroma::sim
