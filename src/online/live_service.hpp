// LiveSchedulerService — the thread-safe front door of OnlineScheduler.
//
// OnlineScheduler is single-threaded by design (determinism is a pure
// function of the submission sequence). The RPC server, however, fields
// requests on a pool of worker threads. This class is the bridge:
//
//  * one scheduler lock guards the scheduler. Every mutation or read is a
//    closure its caller passes to call(): the caller takes the lock within
//    its budget, runs the closure on its own thread, refreshes the load
//    probe and releases. Commands therefore serialize into one submission
//    sequence, exactly like a trace replay, with no thread hop;
//  * a caller that cannot take the lock within its budget returns false,
//    and its command never runs. The lock is not FIFO: concurrent callers
//    are served in no fixed order, as their arrival order was never fixed
//    either; one caller issuing commands in order is served in order;
//  * in wall-clock mode one pump thread, under the same lock, advances
//    virtual time to scale * (wall seconds since start), then sleeps until
//    the next scheduled occurrence (at most 0.25 s, and woken early by a
//    submit or drain) — admission triggers, completions and the max-wait
//    backstop fire off real elapsed time;
//  * in virtual mode no thread runs: the clock only moves when submissions
//    (with explicit arrival times) or drain push it — a mix submitted in
//    arrival order replays byte-identically to OnlineScheduler::run.
//
// The service knows two verbs of its own, submit() and drain(), because
// they carry its admission rules (the drain flag, the job-size check, the
// wall-clock arrival stamp). Every read is a closure its caller passes to
// call(); LocalShard (shard/backend.hpp) builds the wire responses that way.
//
// Drain mode stops admissions (new submissions are rejected) but finishes
// every queued job and replan before reporting back.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "online/scheduler.hpp"

namespace cosched {

struct LiveServiceOptions {
  OnlineSchedulerOptions scheduler;
  /// false: virtual-time mode (arrival times come from the submissions).
  /// true: wall-clock mode (arrivals stamped from real elapsed time).
  bool wall_clock = false;
  /// Virtual seconds per wall-clock second in wall-clock mode. > 1 runs
  /// the simulated fleet faster than real time.
  Real wall_time_scale = 1.0;
};

enum class SubmitError {
  None,
  Draining,  ///< drain() was called; no further admissions
  Invalid,   ///< size or a field outside trace_job_fields_valid()
};

const char* to_string(SubmitError error);

struct SubmitOutcome {
  SubmitError error = SubmitError::None;
  std::int64_t job_id = -1;
  Real virtual_now = 0.0;
  /// Status immediately after the submission was processed: if the
  /// admission trigger fired, this already carries the placement and the
  /// predicted Eq. 1/9 degradation per process.
  JobStatusView status;
};

struct DrainOutcome {
  std::uint64_t completions = 0;
  Real virtual_now = 0.0;
};

/// Cheap, lock-free load snapshot of one service instance — the signal the
/// shard router's spillover policy reads on every admission, so it must not
/// wait for the scheduler lock. Every field is an atomic: queue_depth is
/// live; the rest are refreshed by each command before it releases the
/// lock, i.e. at-most-one-command stale.
struct LoadProbe {
  /// Callers waiting for the scheduler lock right now (the wall-clock pump
  /// counts as one while it waits) — how far behind the instance is.
  std::size_t queue_depth = 0;
  std::uint64_t arrivals = 0;     ///< jobs accepted so far
  std::uint64_t completions = 0;  ///< jobs fully finished
  Real virtual_now = 0.0;         ///< shard-local virtual clock
  /// p95 of wall-clock replan duration (seconds), interpolated from the
  /// same bucket layout /metrics exports. 0 until the first replan.
  Real replan_p95_seconds = 0.0;
  /// Jobs admitted but not yet finished plus jobs accepted and still
  /// pending — the in-flight population this shard is carrying.
  std::uint64_t in_flight() const {
    return arrivals > completions ? arrivals - completions : 0;
  }
};

class LiveSchedulerService {
 public:
  explicit LiveSchedulerService(LiveServiceOptions options);
  ~LiveSchedulerService();  ///< implies stop()

  LiveSchedulerService(const LiveSchedulerService&) = delete;
  LiveSchedulerService& operator=(const LiveSchedulerService&) = delete;

  // All calls are thread-safe. `timeout_seconds` bounds the wait for the
  // scheduler lock (< 0 waits forever); on timeout the call returns false,
  // its command never runs and `out` is untouched.
  bool submit(const TraceJob& spec, SubmitOutcome& out,
              double timeout_seconds);
  /// Stops admissions, then runs every queued job to completion.
  bool drain(DrainOutcome& out, double timeout_seconds);

  /// Takes the scheduler lock within `timeout_seconds`, runs
  /// `read(OnlineScheduler&)` on the calling thread, under its trace
  /// context, and assigns what it returns to `out`. `read` may capture by
  /// reference: it has finished before call() returns. Returns false, with
  /// `read` never run, when the lock was not free within the budget or
  /// the service has stopped. `read` must not call back into the service.
  /// An exception from `read` ends the process, as one from the scheduler
  /// always has: its state after a throw is unknown.
  template <class Result, class Read>
  bool call(Read&& read, Result& out, double timeout_seconds);

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::int32_t total_cores() const { return total_cores_; }

  /// Callers waiting for the scheduler lock right now, the wall-clock pump
  /// included. Thread-safe and lock-free.
  std::size_t queue_depth() const {
    return waiting_.load(std::memory_order_relaxed);
  }
  /// Load snapshot for routing/spillover decisions. Thread-safe; never
  /// waits for the scheduler lock (see LoadProbe).
  LoadProbe load() const;

  /// Retired oracle-cache counters (always zero; see oracle_cache.hpp),
  /// kept for the GetMetrics cache block and the cosched_cache_* /metrics
  /// families. Safe from any thread.
  const DegradationCache& oracle_cache() const {
    return scheduler_.oracle_cache();
  }

  /// Decision journal of the underlying scheduler. Internally mutex-guarded,
  /// so counter sampling (/metrics) and tail views (/debug/events) are safe
  /// from any thread without the scheduler lock.
  const DecisionJournal& journal() const { return scheduler_.journal(); }

  /// Refuses new callers, waits for the one holding the scheduler lock and
  /// joins the wall-clock pump, without draining. Idempotent.
  void stop();

  /// Writes the scheduler's metrics CSVs (summary/histograms/replans) under
  /// `dir`, creating the directory if missing. Only valid after stop() —
  /// it reads the scheduler without the lock. Returns the paths written
  /// (empty on I/O failure).
  std::vector<std::string> write_metrics_csvs(const std::string& dir,
                                              const std::string& prefix);

 private:
  /// Takes the scheduler within `timeout_seconds` (< 0: no bound), counted
  /// in queue_depth() while it waits. False on timeout or once stop() has
  /// begun; the caller then must not touch the scheduler.
  bool acquire(double timeout_seconds);
  /// Hands the scheduler to the next waiter. Pairs with a true acquire().
  void release();
  /// Runs on the pump thread (wall-clock mode only).
  void pump_main();
  /// Wakes the pump after a command that may have moved the next
  /// occurrence.
  void schedule_changed();
  /// The submit command: admission rules, then the arrival itself.
  SubmitOutcome admit(const TraceJob& job);
  /// Refreshes the LoadProbe atomics from the scheduler's metrics. Runs
  /// while the scheduler is held, after each command.
  void refresh_load_probe();
  Real wall_virtual_now() const;

  LiveServiceOptions options_;
  std::int32_t total_cores_ = 0;
  OnlineScheduler scheduler_;  ///< touched only between acquire and release

  // The scheduler lock: busy_ is set while a command or the pump holds the
  // scheduler; mutex_ guards the flags below and is never held while a
  // command runs. (A std::timed_mutex would be shorter, but its
  // try_lock_for waits in pthread_mutex_clocklock, which ThreadSanitizer
  // does not intercept, so every command would read as a data race.)
  std::mutex mutex_;
  std::condition_variable freed_;  ///< busy_ cleared or stop() began
  bool busy_ = false;
  bool stopped_ = false;
  std::atomic<std::size_t> waiting_{0};  ///< changed under mutex_
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point start_;

  // Wall-clock pump: it sleeps on wake_ until the next occurrence, stop(),
  // or a submit or drain sets pump_woken_ (guarded by mutex_).
  std::condition_variable wake_;
  bool pump_woken_ = false;

  // Load-probe mirror, written while the scheduler is held, read by load().
  std::atomic<std::uint64_t> probe_arrivals_{0};
  std::atomic<std::uint64_t> probe_completions_{0};
  std::atomic<double> probe_virtual_now_{0.0};
  std::atomic<double> probe_replan_p95_{0.0};
  /// Wall-clock replan durations folded incrementally from the scheduler's
  /// replan records (replan_records_seen_ marks the fold frontier). Both
  /// are touched only while the scheduler is held.
  Histogram probe_replan_wall_;
  std::size_t replan_records_seen_ = 0;

  std::thread pump_;  ///< last: it uses every member above
};

template <class Result, class Read>
bool LiveSchedulerService::call(Read&& read, Result& out,
                                double timeout_seconds) {
  if (!acquire(timeout_seconds)) return false;
  [&]() noexcept {
    out = read(scheduler_);
    refresh_load_probe();
  }();
  release();
  return true;
}

}  // namespace cosched
