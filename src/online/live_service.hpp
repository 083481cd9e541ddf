// LiveSchedulerService — the thread-safe front door of OnlineScheduler.
//
// OnlineScheduler is single-threaded by design (determinism is a pure
// function of the submission sequence). The RPC server, however, fields
// requests on a pool of worker threads. This class is the bridge:
//
//  * every mutation or read is a Command pushed onto a thread-safe queue;
//  * one dedicated scheduler thread pops commands in FIFO order and runs
//    them against the scheduler — so the event loop, the replans and the
//    metrics see a single serialized submission sequence, exactly like a
//    trace replay;
//  * callers block on a future with their request's remaining deadline;
//    a caller that gives up (timeout) does not cancel the command — it
//    still executes in order, the result is just dropped;
//  * in wall-clock mode the thread additionally advances virtual time to
//    scale * (wall seconds since start) whenever it wakes, sleeping until
//    the next scheduled occurrence — admission triggers, completions and
//    the max-wait backstop fire off real elapsed time;
//  * in virtual mode the clock only moves when submissions (with explicit
//    arrival times) or drain push it — a mix submitted in arrival order
//    replays byte-identically to OnlineScheduler::run on the same mix.
//
// Drain mode stops admissions (new submissions are rejected) but finishes
// every queued job and replan before reporting back.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
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

struct StatusOutcome {
  bool found = false;
  Real virtual_now = 0.0;
  JobStatusView status;
};

struct MetricsOutcome {
  Real virtual_now = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  std::uint64_t completions = 0;
  std::uint64_t replans = 0;
  std::uint64_t migrations = 0;
  Real running_mean_degradation = 0.0;
  DegradationCache::Stats cache;
  /// The byte-comparable artifact (summary + histograms + replans).
  std::string deterministic_csv;
};

struct DrainOutcome {
  std::uint64_t completions = 0;
  Real virtual_now = 0.0;
};

/// Decision-journal slice of one job (see online/journal.hpp). `found` is
/// false for job ids the scheduler has never issued; an evicted-but-known
/// job comes back found with timeline.truncated set.
struct TimelineOutcome {
  bool found = false;
  Real virtual_now = 0.0;
  JobTimeline timeline;
};

/// Cheap, lock-light load snapshot of one service instance — the signal the
/// shard router's spillover policy reads on every admission, so it must not
/// round-trip through the command queue. queue_depth is exact (one mutex
/// peek); the rest are atomics refreshed by the scheduler thread after each
/// executed command, i.e. at-most-one-command stale.
struct LoadProbe {
  /// Commands enqueued and not yet executed by the scheduler thread — how
  /// far behind the instance is.
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

  // All calls are thread-safe. `timeout_seconds` < 0 waits forever; on
  // timeout the call returns false and the outcome is untouched (the
  // command still executes on the scheduler thread).
  bool submit(const TraceJob& spec, SubmitOutcome& out,
              double timeout_seconds);
  bool job_status(std::int64_t job_id, StatusOutcome& out,
                  double timeout_seconds);
  bool job_timeline(std::int64_t job_id, TimelineOutcome& out,
                    double timeout_seconds);
  bool snapshot(ServiceSnapshot& out, double timeout_seconds);
  bool metrics(MetricsOutcome& out, double timeout_seconds);
  /// Stops admissions, then runs every queued job to completion.
  bool drain(DrainOutcome& out, double timeout_seconds);

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::int32_t total_cores() const { return total_cores_; }

  /// Commands awaiting the scheduler thread right now. Thread-safe.
  std::size_t queue_depth() const;
  /// Load snapshot for routing/spillover decisions. Thread-safe; never
  /// blocks on the scheduler thread (see LoadProbe).
  LoadProbe load() const;

  /// Retired oracle-cache counters (always zero; see oracle_cache.hpp),
  /// kept for the GetMetrics cache block and the cosched_cache_* /metrics
  /// families. Safe from any thread.
  const DegradationCache& oracle_cache() const {
    return scheduler_.oracle_cache();
  }

  /// Decision journal of the underlying scheduler. Internally mutex-guarded,
  /// so counter sampling (/metrics) and tail views (/debug/events) are safe
  /// from any thread without a round-trip through the command queue.
  const DecisionJournal& journal() const { return scheduler_.journal(); }
  DecisionJournal& journal() { return scheduler_.journal(); }

  /// Stops the scheduler thread without draining. Idempotent.
  void stop();

  /// Writes the scheduler's metrics CSVs (summary/histograms/replans) under
  /// `dir`, creating the directory if missing. Only valid after stop() —
  /// it reads the scheduler directly, off the command queue. Returns the
  /// paths written (empty on I/O failure).
  std::vector<std::string> write_metrics_csvs(const std::string& dir,
                                              const std::string& prefix);

 private:
  enum class CommandKind { Submit, Status, Timeline, Snapshot, Metrics, Drain };

  struct CommandResult {
    SubmitOutcome submit;
    StatusOutcome status;
    TimelineOutcome timeline;
    ServiceSnapshot snapshot;
    MetricsOutcome metrics;
    DrainOutcome drain;
  };

  struct Command {
    CommandKind kind = CommandKind::Snapshot;
    TraceJob job;
    std::int64_t job_id = -1;
    /// Caller's trace context, captured at enqueue() and re-installed on
    /// the scheduler thread — replan/solver spans triggered by this
    /// command inherit the originating request's trace_id.
    TraceContext trace;
    std::promise<CommandResult> promise;
  };

  std::future<CommandResult> enqueue(Command command);
  static bool await(std::future<CommandResult>& future, CommandResult& result,
                    double timeout_seconds);
  void thread_main();
  void execute(Command& command);
  /// Refreshes the LoadProbe atomics from the scheduler's metrics. Runs on
  /// the scheduler thread only, after each executed command.
  void refresh_load_probe();
  Real wall_virtual_now() const;

  LiveServiceOptions options_;
  std::int32_t total_cores_ = 0;
  OnlineScheduler scheduler_;  ///< touched only by the scheduler thread

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Command> commands_;
  bool stop_requested_ = false;
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point start_;

  // Load-probe mirror, written by the scheduler thread, read by load().
  std::atomic<std::uint64_t> probe_arrivals_{0};
  std::atomic<std::uint64_t> probe_completions_{0};
  std::atomic<double> probe_virtual_now_{0.0};
  std::atomic<double> probe_replan_p95_{0.0};
  /// Wall-clock replan durations folded incrementally from the scheduler's
  /// replan records (replan_records_seen_ marks the fold frontier). Only
  /// quantile() runs off-thread, under this mutex.
  mutable std::mutex probe_mutex_;
  Histogram probe_replan_wall_;
  std::size_t replan_records_seen_ = 0;

  std::thread thread_;
};

}  // namespace cosched
