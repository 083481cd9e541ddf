// Structured tracing for the co-scheduling stack.
//
// A Tracer collects spans (begin/end pairs) into per-thread buffers;
// nothing is shared on the hot path beyond one relaxed atomic load when
// tracing is runtime-disabled. Each event carries a wall-clock stamp
// (microseconds since the tracer epoch, steady clock) and, when the caller
// is inside the virtual-time simulation, a virtual timestamp too — so a
// replan trace lines up both against real solver cost and against the
// simulated fleet. Solver work counts are not trace events: they live in
// the cosched_astar_* registry counters.
//
// Long-lived-server safety: each thread buffer is a fixed-capacity ring
// (set_max_events_per_thread); once full, the oldest event is overwritten
// and a per-buffer dropped counter is bumped (surfaced via
// dropped_events(), exported to /metrics by CoschedServer).
//
// Request correlation: a TraceContext{trace_id} is installed per thread
// (TraceContextScope); record() stamps the current trace_id and a
// process-global sequence number onto every event. The Chrome exporter
// emits flow events ("s"/"t"/"f") linking all spans of one trace across
// threads.
//
// One exporter: export_chrome_json() renders Chrome trace-event JSON ("X"
// complete spans, "B" for spans still open, flow events), loadable in
// chrome://tracing / Perfetto, sorted by (timestamp, tid, seq). Everything
// but the "ts" and "dur" wall times is deterministic for a deterministic
// event sequence: names, tids (thread registration order), record order
// and args.
//
// TraceSpan is the one phase scope of the codebase: besides the trace
// begin/end pair it feeds the continuous Profiler (obs/profiler.hpp), so
// every span name is also a /debug/profile path. The two runtime switches
// (Tracer::set_enabled, Profiler::set_enabled) are latched independently at
// construction — spans started while a switch is off record nothing there,
// even if it is turned on before they close. One clock read opens the span
// and one closes it, shared by both consumers.
//
// Compile-time kill switch: defining COSCHED_OBS_DISABLED in a TU turns
// COSCHED_TRACE_SPAN in that TU into a no-op with zero residue (no Tracer
// or Profiler call, no guard object).
//
// Span names must be string literals (or otherwise outlive the tracer):
// events store the pointer, not a copy, to keep recording allocation-free
// for the common no-args case.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "util/common.hpp"

namespace cosched {

/// Per-request trace identity. trace_id == 0 means "no trace" (events are
/// stamped with trace_id 0).
struct TraceContext {
  std::uint64_t trace_id = 0;
};

class Tracer {
 public:
  enum class Phase : std::uint8_t { Begin, End };

  struct Event {
    const char* name = "";   ///< static string; not owned
    Phase phase = Phase::Begin;
    double wall_us = 0.0;    ///< microseconds since the tracer epoch
    Real virtual_time = -1.0;  ///< virtual seconds; < 0 = not stamped
    std::uint64_t trace_id = 0;  ///< correlating request trace, 0 = none
    std::uint64_t seq = 0;   ///< process-global record order
    std::string args;        ///< optional "k=v ..." detail, may be empty
  };

  Tracer();

  /// Process-wide tracer used by COSCHED_TRACE_SPAN.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every buffered event, zeroes the dropped counters and re-stamps
  /// the epoch. Thread buffers stay registered (their tids are stable for
  /// the tracer's lifetime); the global sequence counter keeps climbing,
  /// so event order stays total across resets.
  void reset();

  // ---- bounding ---------------------------------------------------------
  /// Ring capacity per thread buffer. Takes effect for new events; shrinking
  /// below a buffer's current size keeps existing events until reset().
  void set_max_events_per_thread(std::size_t n) {
    max_events_per_thread_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  /// Events overwritten by the ring, summed across threads (monotonic until
  /// reset()).
  std::uint64_t dropped_events() const;

  // ---- per-thread current context --------------------------------------
  static const TraceContext& current_context();
  static void set_current_context(const TraceContext& context);

  // ---- recording (the macros below are the intended entry points) -------
  /// `at` stamps the event; TraceSpan passes the clock read it shares with
  /// the profiler.
  void begin_span(const char* name, Real virtual_time = -1.0,
                  std::string args = {},
                  std::chrono::steady_clock::time_point at =
                      std::chrono::steady_clock::now());
  void end_span(std::chrono::steady_clock::time_point at =
                    std::chrono::steady_clock::now());

  std::uint64_t event_count() const;

  /// Chrome trace-event JSON array, sorted by (wall ts, tid, seq). Spans of
  /// a shared trace_id additionally emit flow events so Perfetto draws the
  /// request -> solver arrows.
  std::string export_chrome_json() const;

  /// Writes export_chrome_json() to `path` through write_export_file().
  bool write_chrome_json(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::int32_t tid = 0;
    std::int32_t depth = 0;        ///< open spans; touched only by the owner
    mutable std::mutex mutex;      ///< guards ring state against exporters
    std::vector<Event> events;     ///< ring storage, capped at capacity
    std::size_t next = 0;          ///< overwrite position once full
    std::uint64_t dropped = 0;     ///< events overwritten by the ring
  };

  ThreadBuffer& local_buffer();
  void record(ThreadBuffer& buffer, Event event,
              std::chrono::steady_clock::time_point at);
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_snapshot() const;
  /// Ring contents oldest-first. Caller must hold `buffer.mutex`.
  static std::vector<Event> ordered_events(const ThreadBuffer& buffer);

  std::atomic<bool> enabled_{false};
  std::uint64_t id_ = 0;  ///< unique per Tracer: thread-local cache key
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> max_events_per_thread_{65536};
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

// ---- cross-process dump merging -------------------------------------------
// The router's TraceDump fan-in pulls each remote shard's own dump and
// merges it with the local one. These helpers understand exactly the array
// shape export_chrome_json() produces — nothing more general.

/// Namespaces an export_chrome_json() array for merging: rewrites pid 1 to
/// `pid` (Perfetto shows each process as its own track group) and prefixes
/// span names with `prefix`. Flow events are left untouched
/// on purpose — Perfetto binds flows by (cat, name, id), and an unchanged
/// "trace"/"flow" pair with a shared trace id is what draws the
/// router -> shard arrow across process tracks.
std::string namespace_chrome_trace(const std::string& json, int pid,
                                   const std::string& prefix);

/// Concatenates export_chrome_json() arrays (typically one local + N
/// namespaced remote ones) into one loadable array of at most `max_bytes`
/// bytes (never less than the empty "[]\n"): while it would be longer, the
/// largest part gives up its oldest record, and `omitted` counts the
/// records left out. Timestamps keep
/// their per-process epochs — cross-process skew is cosmetic; the flow
/// events carry the causality.
std::string merge_chrome_traces(const std::vector<std::string>& parts,
                                std::size_t max_bytes,
                                std::uint64_t& omitted);

/// Installs `context` as the calling thread's current trace context for the
/// scope's lifetime, restoring the previous one on exit. Used by the RPC
/// server around request handling; the scheduler commands a request issues
/// run on the same thread, so their spans inherit it.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& context)
      : previous_(Tracer::current_context()) {
    Tracer::set_current_context(context);
  }
  ~TraceContextScope() { Tracer::set_current_context(previous_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// RAII phase scope: a trace span and a profiler phase under one name.
/// Latches both runtime switches at construction, so enter/leave and
/// begin/end always pair even if a switch is toggled mid-span.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Real virtual_time = -1.0,
                     std::string args = {})
      : profiled_(Profiler::global().enabled()),
        traced_(Tracer::global().enabled()) {
    if (!profiled_ && !traced_) return;
    if (profiled_) Profiler::global().enter(name);
    start_ = std::chrono::steady_clock::now();
    if (traced_)
      Tracer::global().begin_span(name, virtual_time, std::move(args),
                                  start_);
  }
  ~TraceSpan() {
    if (!profiled_ && !traced_) return;
    auto now = std::chrono::steady_clock::now();
    if (profiled_)
      Profiler::global().leave(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
              .count()));
    if (traced_) Tracer::global().end_span(now);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool profiled_;
  bool traced_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cosched

// ---- macros ---------------------------------------------------------------
// COSCHED_TRACE_SPAN(var, name[, virtual_time[, args]]) — RAII span and
// profiler phase bound to the enclosing scope. It vanishes entirely (a
// no-op, no tracer or profiler reference) in TUs compiled with
// -DCOSCHED_OBS_DISABLED.
#ifdef COSCHED_OBS_DISABLED

#define COSCHED_TRACE_SPAN(var, ...) \
  do {                               \
  } while (0)

#else

#define COSCHED_TRACE_SPAN(var, ...) ::cosched::TraceSpan var(__VA_ARGS__)

#endif  // COSCHED_OBS_DISABLED
