// OnlineScheduler — the event-driven co-scheduling service.
//
// A fixed fleet of M identical u-core machines serves a stream of arriving
// jobs (WorkloadTrace). The service owns a virtual clock, a pending-job
// queue and the current placement, and keeps that placement good by local
// repair under the paper's Eq. 13 objective:
//
//  * arrivals queue until the AdmissionPolicy fires; a replan admits
//    pending jobs FIFO into free cores and pads the rest with idle
//    processes, so every replan sees a standard multiple-of-u Problem;
//  * every replan is a repair: starting from the incumbent (running
//    processes where they run, everyone else free to move), every admitted
//    process, in FIFO job order, takes the free slot that raises the
//    Eq. 13 objective least (SwapEngine::fill), and the placement is then
//    polished by replan_with_migrations' delta-evaluated swaps, trading
//    Eq. 13 degradation against the cost of moving already-running
//    processes (newly admitted jobs and idle slots move free, via the
//    weighted move_weight extension). A cold fleet is the same fill from an
//    incumbent in which every process moves free; a threshold-trigger
//    rebalance that admits nothing is the polish alone. When a batch of
//    more than one job takes every free slot the fill has no idle slot to
//    choose, so a migration-blind swap descent from the incumbent
//    (improve_by_swaps) is offered as a second starting point. No solver
//    runs on the online path: HA* stays the paper's offline co-scheduler
//    and the reference the replan oracle measures repairs against;
//  * each replan evaluates the closed-form synthetic contention model
//    directly — a few nanoseconds per query, so nothing is memoized; the
//    oracle-cache counters (oracle_cache()) stay only for the wire and the
//    benchmark, and read zero;
//  * progress is simulated with per-process rates: a process with current
//    degradation d advances its solo work at 1/(1+d), re-evaluated whenever
//    a machine's co-runner set changes. Completions free cores mid-epoch.
//
// The service runs open-world: begin() resets it, submit() feeds one job,
// pump(t) processes everything up to virtual time t, finish() drains. The
// batch entry point run(trace) is exactly begin + submit* + finish, so a
// job mix driven through the RPC front-end (src/rpc) in virtual-time mode
// replays byte-identically to the same mix fed as a trace.
//
// Everything observable — the decision journal (the scheduler's one event
// record) and SchedulerMetrics — is a pure function of (submission
// sequence, options), byte-identical across runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/oracle_cache.hpp"
#include "core/problem.hpp"
#include "online/admission.hpp"
#include "online/event.hpp"
#include "online/journal.hpp"
#include "online/metrics.hpp"
#include "online/trace.hpp"

namespace cosched {

struct OnlineSchedulerOptions {
  std::uint32_t cores = 4;     ///< u of every machine (2, 4 or 8)
  std::int32_t machines = 8;   ///< fixed fleet size M
  AdmissionOptions admission;
  /// Degradation-units charged per moved running process (Eq. 13 vs
  /// migration trade-off of each replan).
  Real migration_cost = 0.05;
  /// Swap-improvement passes of the migration-aware local search per
  /// replan. Small on purpose: the online loop replans often.
  std::uint64_t replan_passes = 3;
  /// S-curve capacity of the synthetic contention model; 0 = the builders'
  /// convention 0.45 * (u - 1).
  Real synthetic_capacity = 0.0;
  /// Decision-journal ring capacity (admissions, placements, migrations);
  /// oldest events are evicted (and counted) past this bound.
  std::size_t journal_capacity = 65536;
};

/// What one replan decided from, in the local ids of its Problem.
struct ReplanInput {
  Problem problem;                ///< every live process + idle padding
  /// Running processes where they run; admitted processes and idle
  /// padding in the free slots, in machine order. A repair greedily
  /// re-seats the admitted processes among the free slots, then polishes.
  Solution incumbent;
  std::vector<Real> move_weight;  ///< 1 = was running (moving it costs)
};

/// Lifecycle of a submitted job as seen by status queries.
enum class JobPhase { Pending, Running, Finished };

const char* to_string(JobPhase phase);

/// Per-process placement + prediction of one job (Eq. 1/9 degradation under
/// the current co-runner set).
struct JobProcView {
  std::int64_t gid = -1;
  std::int32_t machine = -1;  ///< -1 while pending / after finish
  Real degradation = 0.0;
  Real remaining_work = 0.0;  ///< solo-seconds left
};

struct JobStatusView {
  std::int64_t id = -1;
  std::string name;
  JobPhase phase = JobPhase::Pending;
  Real arrival_time = 0.0;
  Real admit_time = -1.0;   ///< < 0 while pending
  Real finish_time = -1.0;  ///< < 0 until the last process completes
  Real work = 0.0;
  std::vector<JobProcView> procs;  ///< empty while pending
};

/// Point-in-time view of the whole fleet.
struct ServiceSnapshot {
  Real now = 0.0;
  std::int64_t pending_jobs = 0;
  std::int32_t free_slots = 0;
  std::uint64_t completions = 0;
  Real live_degradation_sum = 0.0;   ///< Σ d_i over live processes
  Real mean_live_degradation = 0.0;
  struct Proc {
    std::int64_t gid = -1;
    std::int64_t job = -1;
    Real degradation = 0.0;
  };
  std::vector<std::vector<Proc>> machines;
};

class OnlineScheduler {
 public:
  explicit OnlineScheduler(OnlineSchedulerOptions options);
  ~OnlineScheduler();

  /// Feeds the whole trace and simulates to completion of every job.
  /// Exactly begin() + submit(job)* + finish().
  void run(const WorkloadTrace& trace);

  // ---- open-world (live) interface -------------------------------------
  /// Resets clock, queues, placement and metrics.
  void begin();
  /// Registers one job; its arrival event fires at spec.arrival_time
  /// (clamped up to the current virtual time — arrivals cannot be in the
  /// past). Returns the job id used by job_status(). Events at or before
  /// the arrival are NOT processed; call pump().
  std::int64_t submit(const TraceJob& spec);
  /// Processes every due occurrence (process completions and queued
  /// events) with virtual time <= limit, in deterministic order. The clock
  /// only moves when an occurrence is processed, so pump(t) followed by
  /// pump(t') is byte-identical to pump(t').
  void pump(Real limit);
  /// Processes the single next due occurrence if its virtual time is
  /// <= limit; returns false when there is none. One occurrence fires at
  /// most one replan, so stepping observes every replan (last_replan()).
  bool step(Real limit);
  /// Drains: processes everything until no work is outstanding.
  void finish();
  /// Virtual time of the next due occurrence (process completion or queued
  /// event); kInfinity when nothing is scheduled. Lets a wall-clock bridge
  /// sleep until something actually happens instead of polling.
  Real next_occurrence_time() const;

  // ---- introspection ---------------------------------------------------
  const OnlineSchedulerOptions& options() const { return options_; }
  Real now() const { return clock_.now(); }
  const SchedulerMetrics& metrics() const { return metrics_; }
  /// Per-decision attribution ring (see journal.hpp); query with
  /// job_timeline(). The non-const overload exists for the alert engine,
  /// which appends fleet-level transition events from its own thread (the
  /// journal is internally mutex-guarded).
  const DecisionJournal& journal() const { return journal_; }
  DecisionJournal& journal() { return journal_; }
  /// Admission → placement → migration → completion events of one job.
  JobTimeline job_timeline(std::int64_t job_id) const {
    return journal_.query(job_id);
  }
  /// Retired oracle-cache counters (always zero; see oracle_cache.hpp).
  const DegradationCache& oracle_cache() const { return cache_; }
  std::int32_t machine_count() const { return options_.machines; }
  std::int32_t total_cores() const {
    return options_.machines * static_cast<std::int32_t>(options_.cores);
  }
  /// machine -> global ids of the live processes it hosts.
  std::vector<std::vector<std::int64_t>> placement() const;
  std::int64_t job_count() const;
  /// Status + placement + predicted degradation of one submitted job.
  JobStatusView job_status(std::int64_t job_id) const;
  /// Fleet-wide placement/degradation snapshot at the current clock.
  ServiceSnapshot service_snapshot() const;
  /// Inputs of the most recent replan (null before the first one), so a
  /// committed decision can be re-solved against other planners.
  const ReplanInput* last_replan() const { return last_replan_.get(); }

 private:
  struct JobState;
  struct ProcState;

  // Simulation steps (see scheduler.cpp).
  void advance_to(Real t);
  void handle_arrival(std::int64_t job_id);
  void handle_process_finish(std::int64_t proc_gid);
  void handle_tick();
  void handle_deadline(std::int64_t job_id);
  void maybe_replan();
  void replan(const char* reason, bool allow_pure_rebalance);
  void refresh_degradations();
  void arm_tick();
  bool outstanding_work() const;
  std::int32_t live_process_count() const;
  std::int32_t free_slot_count() const;
  Real live_degradation_sum() const;
  Real mean_live_degradation() const;

  OnlineSchedulerOptions options_;
  AdmissionPolicy policy_;

  VirtualClock clock_;
  EventQueue queue_;
  DecisionJournal journal_;
  SchedulerMetrics metrics_;
  DegradationCache cache_;

  std::vector<JobState> jobs_;           ///< indexed by global job id
  std::vector<ProcState> procs_;         ///< indexed by global process id
  std::vector<std::int64_t> pending_;    ///< FIFO of pending job ids
  std::vector<std::int64_t> live_jobs_;  ///< admitted, unfinished; ascending
  std::vector<std::vector<std::int64_t>> machines_;  ///< live proc gids
  std::int64_t remaining_arrivals_ = 0;
  Real last_replan_time_ = -kInfinity;
  bool tick_armed_ = false;

  // Current problem context (rebuilt at each replan): local <-> global maps
  // and the model used for rate re-evaluation between replans.
  std::unique_ptr<ReplanInput> last_replan_;
  std::vector<std::int64_t> local_to_gid_;  ///< -1 for idle padding
};

}  // namespace cosched
