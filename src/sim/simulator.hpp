// Discrete-event simulation kernel.
//
// A `Simulator` owns an indexed heap of timestamped events. Components
// schedule callbacks at absolute or relative times; the kernel executes them
// in (time, insertion-order) order, which makes runs fully deterministic.
// Cancellation is O(log n) and handle validation O(1) — see
// sim/event_queue.hpp for the data-structure rationale and sim/callback.hpp
// for the allocation-free closure storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::sim {

/// Handle to a scheduled event, usable to cancel it before it fires.
/// Handles are cheap value types; a handle outliving its event is safe and
/// simply stops matching (cancel() returns false).
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Simulator;
  EventHandle(std::uint64_t id, std::uint32_t slot) : id_(id), slot_(slot) {}
  std::uint64_t id_ = 0;
  std::uint32_t slot_ = 0;  // direct index into the kernel's slot table
};

/// The event kernel. Not thread-safe: one Simulator == one simulated world,
/// driven by a single thread. Parallel experiments run many independent
/// Simulators (see sim::WorkStealingPool in sim/fleet.hpp).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (must be >= now()).
  /// The event is stamped with the current profiler category and trace
  /// context (see below); the explicit-category overloads override the
  /// category at the head of a causal chain.
  EventHandle schedule_at(Time when, Callback&& fn);
  EventHandle schedule_at(Time when, EventCategory category, Callback&& fn);

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  EventHandle schedule_in(Time delay, Callback&& fn);
  EventHandle schedule_in(Time delay, EventCategory category, Callback&& fn);

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired. Safe to call with an already-fired, already-cancelled, or
  /// invalid handle (all return false).
  bool cancel(EventHandle h);

  /// Runs events until the queue empties or `deadline` is reached; time
  /// advances to min(deadline, last event). Returns number of events run.
  std::size_t run_until(Time deadline);

  /// Runs all events to exhaustion (use with care with recurring timers).
  std::size_t run();

  /// Executes at most one event. Returns false when the queue is empty.
  bool step();

  /// Number of events currently pending.
  std::size_t pending() const { return queue_.size(); }

  /// High-water mark of pending() since construction.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Events popped off same-time trains rather than the heap (see
  /// sim/event_queue.hpp "Trains"). Subset of executed(); telemetry only —
  /// train membership never changes execution order.
  std::uint64_t absorbed() const { return queue_.train_absorbed(); }

  /// Enables/disables same-time train batching in the event queue (default
  /// on). Execution order is identical either way; the off position is the
  /// pure-heap reference the benches' scalar leg measures against.
  void set_train_batching(bool enabled) { queue_.set_trains_enabled(enabled); }

  /// Successful cancel() calls (event existed, had not fired).
  std::uint64_t cancelled() const { return cancelled_; }

  /// cancel() calls that presented a stale-but-wellformed handle (already
  /// fired, already cancelled, or recycled slot).
  std::uint64_t stale_handle_rejects() const { return stale_rejects_; }

  // --- checkpoint/restore hooks (see src/snap) ------------------------------

  /// Counter values a checkpoint must capture so a restored world keeps
  /// allocating identical event identities.
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t next_id() const { return next_id_; }

  /// Ordering key and identity of a still-pending event; `valid` is false
  /// for fired/cancelled/default handles. Owners of re-armable events use
  /// this at save time so restore can rebuild the event verbatim.
  struct PendingEventInfo {
    bool valid = false;
    Time when;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
  };
  PendingEventInfo pending_event_info(EventHandle h) const;

  /// Drops every pending event (restore preamble: the structurally-rebuilt
  /// world's warmup events are discarded before the saved set is re-armed).
  /// Returns the number dropped. Counters are untouched.
  std::size_t clear_pending();

  /// Re-inserts an event with an explicit (when, seq, id) identity, as
  /// captured by pending_event_info() at checkpoint time. Restoring the
  /// full pending set with original identities preserves execution order
  /// and keeps handle/seq allocation bit-compatible with the uninterrupted
  /// run. Does not advance next_seq_/next_id_ (restore_state() sets them).
  EventHandle restore_event(Time when, std::uint64_t seq, std::uint64_t id,
                            EventCategory category, Callback&& fn);

  /// Overwrites the kernel clock and counters from a checkpoint.
  void restore_state(Time now, std::uint64_t next_seq, std::uint64_t next_id,
                     std::uint64_t executed, std::uint64_t cancelled,
                     std::uint64_t stale_rejects, std::size_t peak_pending);

  /// Inline trace ring: the kernel's one per-event observation slot.
  /// obs::FlightRecorder attaches here to keep a black box; so does
  /// snap::ReplayHarness, with a one-record ring and a wake deadline that
  /// trips on every event, to record the whole executed-event stream. When
  /// a TraceHot descriptor is attached the kernel itself writes one POD
  /// TraceRecord per executed event (before the event runs) into the
  /// owner's ring and maintains the owner's stall-run counter and wake
  /// deadline, calling back through the TraceSlowPath virtuals only when a
  /// threshold crosses. Observation-only: the slow path must never
  /// schedule or cancel events (that would perturb event identities and
  /// break fingerprint equality with the ring off).
  struct TraceRecord {
    std::int64_t t_ns = 0;
    std::uint16_t kind = 0;  // 0 = kernel event; owners add other kinds
    std::uint16_t code = 0;  // kernel writes the event category
    std::uint32_t shard = 0;
    std::uint64_t a = 0;  // kernel writes the event id
    std::uint64_t b = 0;  // kernel writes the event seq
  };
  class TraceSlowPath {
   public:
    virtual ~TraceSlowPath() = default;
    /// A same-timestamp event run just reached stall_run_limit.
    virtual void on_trace_stall(Time when, std::uint64_t run_len) = 0;
    /// An event timestamp crossed next_wake_ns. The callee is expected to
    /// recompute next_wake_ns before returning.
    virtual void on_trace_wake(Time when) = 0;
  };
  /// Field order and alignment are deliberate: everything the per-event
  /// writer reads or writes (ring/mask/total/last_t/run_len/limit/wake
  /// deadline/shard) packs into the first 64 bytes, so tracing touches
  /// exactly one descriptor cache line per event; the slow-path pointer
  /// (only dereferenced on threshold trips) spills to the second line.
  struct alignas(64) TraceHot {
    TraceRecord* ring = nullptr;
    std::size_t mask = 0;  // ring capacity - 1; capacity is a power of two
    std::uint64_t total = 0;
    std::int64_t last_t_ns = -1;
    std::uint64_t run_len = 0;
    std::uint64_t stall_run_limit = ~std::uint64_t{0};
    std::int64_t next_wake_ns = std::numeric_limits<std::int64_t>::max();
    std::uint32_t shard = 0;
    TraceSlowPath* slow = nullptr;
  };
  static_assert(offsetof(TraceHot, slow) >= 60 || sizeof(void*) < 8,
                "hot fields share the first cache line");
  /// Takes the slot for `trace` (a no-op if it already holds it). The slot
  /// has one owner at a time: throws std::logic_error while another
  /// descriptor holds it, so two consumers can never silently overwrite
  /// each other.
  void attach_event_trace(TraceHot* trace);
  /// Frees the slot if `trace` holds it; otherwise leaves it untouched.
  void detach_event_trace(const TraceHot* trace) {
    if (trace_ == trace) trace_ = nullptr;
  }
  TraceHot* event_trace() const { return trace_; }

  // --- telemetry hooks ------------------------------------------------------
  // Both hooks are observation-only: they never affect event order, RNG
  // draws, or timestamps, so enabling them cannot change simulated behavior.

  /// Attaches (or clears, with nullptr) a per-category profiler. The
  /// profiler must outlive the simulator or be detached first.
  void set_profiler(KernelProfiler* p) { profiler_ = p; }
  KernelProfiler* profiler() const { return profiler_; }

  /// The causal trace context (a span id, see obs::SpanTracer). Captured
  /// per event at schedule time and restored while that event executes, so
  /// causality survives the scheduler hop.
  std::uint64_t trace_context() const { return trace_ctx_; }
  void set_trace_context(std::uint64_t ctx) { trace_ctx_ = ctx; }

  /// Category stamped on events scheduled without an explicit one. Events
  /// executing set it to their own category (inheritance down the chain).
  EventCategory current_category() const { return current_category_; }
  void set_current_category(EventCategory c) { current_category_ = c; }

 private:
  Time now_ = Time::zero();
  EventQueue queue_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t stale_rejects_ = 0;
  std::size_t peak_pending_ = 0;
  KernelProfiler* profiler_ = nullptr;
  std::uint64_t trace_ctx_ = 0;
  EventCategory current_category_ = EventCategory::kNone;
  TraceHot* trace_ = nullptr;
};

/// RAII override of the simulator's current trace context (used by span
/// scopes and anywhere causality must be pinned across a schedule call).
class ScopedTraceContext {
 public:
  ScopedTraceContext(Simulator& sim, std::uint64_t ctx)
      : sim_(sim), prev_(sim.trace_context()) {
    sim_.set_trace_context(ctx);
  }
  ~ScopedTraceContext() { sim_.set_trace_context(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Simulator& sim_;
  std::uint64_t prev_;
};

/// A repeating timer bound to a Simulator; RAII-cancels on destruction.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer; first fire after one period (or `initial_delay`).
  void start();
  void start_after(Time initial_delay);
  void stop();
  bool running() const { return running_; }
  Time period() const { return period_; }
  void set_period(Time p) { period_ = p; }

  /// Profiler category stamped on this timer's events (default kTimer);
  /// set before start() so the whole chain is attributed to its owner.
  void set_category(EventCategory c) { category_ = c; }

  /// Checkpoint hooks: a periodic timer's only state is its running flag,
  /// period, and the identity of its one pending event, which restore()
  /// re-arms verbatim (original when/seq/id) via Simulator::restore_event.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  void arm(Time delay);

  Simulator& sim_;
  Time period_;
  std::function<void()> fn_;
  EventHandle pending_;
  bool running_ = false;
  EventCategory category_ = EventCategory::kTimer;
};

}  // namespace aroma::sim
