#include "online/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "baseline/local_search.hpp"
#include "cache/machine_config.hpp"
#include "core/degradation_models.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "vm/migration.hpp"

namespace cosched {

const char* to_string(JobPhase phase) {
  switch (phase) {
    case JobPhase::Pending: return "pending";
    case JobPhase::Running: return "running";
    case JobPhase::Finished: return "finished";
  }
  return "?";
}

struct OnlineScheduler::JobState {
  TraceJob spec;
  Real admit_time = -1.0;               ///< < 0 while pending
  Real finish_time = -1.0;              ///< < 0 until completion
  std::vector<std::int64_t> procs;      ///< global process ids
  std::int32_t unfinished = 0;
};

struct OnlineScheduler::ProcState {
  std::int64_t job = -1;
  Real remaining = 0.0;      ///< solo-seconds of work left
  Real degradation = 0.0;    ///< d_i under the current co-runner set
  std::int32_t machine = -1;
  std::int32_t local_id = -1;  ///< id in the current Problem
  bool live = false;
};

OnlineScheduler::OnlineScheduler(OnlineSchedulerOptions options)
    : options_(options), policy_(options.admission) {
  COSCHED_EXPECTS(options_.machines >= 1);
  COSCHED_EXPECTS(options_.migration_cost >= 0.0);
  machine_by_cores(options_.cores);  // validates the core count
  machines_.assign(static_cast<std::size_t>(options_.machines), {});
  journal_.set_capacity(options_.journal_capacity);
}

OnlineScheduler::~OnlineScheduler() = default;

std::vector<std::vector<std::int64_t>> OnlineScheduler::placement() const {
  return machines_;
}

std::int64_t OnlineScheduler::job_count() const {
  return static_cast<std::int64_t>(jobs_.size());
}

JobStatusView OnlineScheduler::job_status(std::int64_t job_id) const {
  COSCHED_EXPECTS(job_id >= 0 && job_id < job_count());
  const JobState& job = jobs_[static_cast<std::size_t>(job_id)];
  JobStatusView view;
  view.id = job_id;
  view.name = job.spec.name;
  view.arrival_time = job.spec.arrival_time;
  view.admit_time = job.admit_time;
  view.finish_time = job.finish_time;
  view.work = job.spec.work;
  if (job.admit_time < 0.0) {
    view.phase = JobPhase::Pending;
  } else {
    view.phase = job.unfinished > 0 ? JobPhase::Running : JobPhase::Finished;
    view.procs.reserve(job.procs.size());
    for (std::int64_t gid : job.procs) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      JobProcView pv;
      pv.gid = gid;
      pv.machine = p.machine;
      pv.degradation = p.live ? p.degradation : 0.0;
      pv.remaining_work = p.remaining;
      view.procs.push_back(pv);
    }
  }
  return view;
}

ServiceSnapshot OnlineScheduler::service_snapshot() const {
  ServiceSnapshot snap;
  snap.now = clock_.now();
  snap.pending_jobs = static_cast<std::int64_t>(pending_.size());
  snap.free_slots = free_slot_count();
  snap.completions = metrics_.completions();
  snap.live_degradation_sum = live_degradation_sum();
  snap.mean_live_degradation = mean_live_degradation();
  snap.machines.resize(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    snap.machines[m].reserve(machines_[m].size());
    for (std::int64_t gid : machines_[m]) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      snap.machines[m].push_back({gid, p.job, p.degradation});
    }
  }
  return snap;
}

std::int32_t OnlineScheduler::live_process_count() const {
  std::int32_t n = 0;
  for (const auto& m : machines_) n += static_cast<std::int32_t>(m.size());
  return n;
}

std::int32_t OnlineScheduler::free_slot_count() const {
  return total_cores() - live_process_count();
}

Real OnlineScheduler::live_degradation_sum() const {
  Real sum = 0.0;
  for (const auto& m : machines_)
    for (std::int64_t gid : m)
      sum += procs_[static_cast<std::size_t>(gid)].degradation;
  return sum;
}

Real OnlineScheduler::mean_live_degradation() const {
  std::int32_t live = live_process_count();
  return live == 0 ? 0.0 : live_degradation_sum() / static_cast<Real>(live);
}

bool OnlineScheduler::outstanding_work() const {
  return live_process_count() > 0 || !pending_.empty() ||
         remaining_arrivals_ > 0;
}

void OnlineScheduler::advance_to(Real t) {
  Real dt = t - clock_.now();
  COSCHED_EXPECTS(dt >= -kObjectiveEps);
  if (dt > 0.0) {
    metrics_.on_advance(dt, live_process_count(), live_degradation_sum());
    for (auto& machine : machines_) {
      for (std::int64_t gid : machine) {
        ProcState& p = procs_[static_cast<std::size_t>(gid)];
        p.remaining =
            std::max(0.0, p.remaining - dt / (1.0 + p.degradation));
      }
    }
    clock_.advance_to(t);
  }
}

void OnlineScheduler::refresh_degradations(std::size_t m) {
  COSCHED_EXPECTS(last_replan_ != nullptr);
  const DegradationModel& model = *last_replan_->problem.full_model;
  const auto& machine = machines_[m];
  std::vector<ProcessId> local;
  local.reserve(machine.size());
  for (std::int64_t gid : machine) {
    const ProcState& p = procs_[static_cast<std::size_t>(gid)];
    COSCHED_EXPECTS(p.local_id >= 0);
    local.push_back(p.local_id);
  }
  std::vector<Real> d(local.size());
  model.machine_degradations(local, d);
  for (std::size_t k = 0; k < machine.size(); ++k)
    procs_[static_cast<std::size_t>(machine[k])].degradation = d[k];
}

void OnlineScheduler::begin() {
  clock_ = VirtualClock();
  queue_ = EventQueue();
  journal_.clear();
  metrics_ = SchedulerMetrics();
  jobs_.clear();
  procs_.clear();
  pending_.clear();
  live_jobs_.clear();
  machines_.assign(static_cast<std::size_t>(options_.machines), {});
  last_replan_.reset();
  local_to_gid_.clear();
  remaining_arrivals_ = 0;
  last_replan_time_ = -kInfinity;
  tick_armed_ = false;
}

std::int64_t OnlineScheduler::submit(const TraceJob& spec) {
  COSCHED_EXPECTS(spec.processes >= 1 && spec.processes <= total_cores());
  JobState state;
  state.spec = spec;
  // Arrivals cannot be in the past: a live submission that raced the clock
  // is stamped "now". Batch replay never triggers this (arrivals are
  // sorted and nothing is pumped between submissions).
  if (state.spec.arrival_time < clock_.now())
    state.spec.arrival_time = clock_.now();
  std::int64_t id = static_cast<std::int64_t>(jobs_.size());
  jobs_.push_back(std::move(state));
  ++remaining_arrivals_;
  queue_.push(jobs_.back().spec.arrival_time, EventKind::JobArrival, id);
  arm_tick();
  return id;
}

void OnlineScheduler::arm_tick() {
  if (options_.admission.trigger != ReplanTrigger::Periodic || tick_armed_)
    return;
  queue_.push(clock_.now() + options_.admission.period, EventKind::ReplanTick,
              0);
  tick_armed_ = true;
}

bool OnlineScheduler::step(Real limit) {
  // Next process completion, if any: min over live processes of
  // now + remaining * (1 + d); ties broken by the smaller global id.
  Real next_finish = kInfinity;
  std::int64_t finish_gid = -1;
  for (const auto& machine : machines_) {
    for (std::int64_t gid : machine) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      Real finish = clock_.now() + p.remaining * (1.0 + p.degradation);
      if (finish < next_finish ||
          (finish == next_finish && gid < finish_gid)) {
        next_finish = finish;
        finish_gid = gid;
      }
    }
  }

  if (finish_gid >= 0 &&
      (queue_.empty() || next_finish < queue_.top().time)) {
    if (next_finish > limit) return false;
    advance_to(next_finish);
    handle_process_finish(finish_gid);
    return true;
  }
  if (queue_.empty() || queue_.top().time > limit) return false;
  Event e = queue_.pop();
  advance_to(e.time);
  switch (e.kind) {
    case EventKind::JobArrival: handle_arrival(e.payload); break;
    case EventKind::ReplanTick: handle_tick(); break;
    case EventKind::AdmissionDeadline: handle_deadline(e.payload); break;
    default: COSCHED_ENSURES(false);
  }
  return true;
}

void OnlineScheduler::pump(Real limit) {
  while (step(limit)) {
  }
}

Real OnlineScheduler::next_occurrence_time() const {
  Real next = queue_.empty() ? kInfinity : queue_.top().time;
  for (const auto& machine : machines_) {
    for (std::int64_t gid : machine) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      next = std::min(next,
                      clock_.now() + p.remaining * (1.0 + p.degradation));
    }
  }
  return next;
}

void OnlineScheduler::finish() {
  pump(kInfinity);
  COSCHED_ENSURES(pending_.empty());
  COSCHED_ENSURES(live_process_count() == 0);
  COSCHED_ENSURES(remaining_arrivals_ == 0);
}

void OnlineScheduler::run(const WorkloadTrace& trace) {
  begin();
  jobs_.reserve(trace.jobs.size());
  for (const TraceJob& j : trace.jobs) submit(j);
  finish();
}

void OnlineScheduler::handle_arrival(std::int64_t job_id) {
  pending_.push_back(job_id);
  --remaining_arrivals_;
  metrics_.on_arrival();
  queue_.push(clock_.now() + options_.admission.max_wait,
              EventKind::AdmissionDeadline, job_id);
  maybe_replan();
}

void OnlineScheduler::handle_process_finish(std::int64_t proc_gid) {
  ProcState& p = procs_[static_cast<std::size_t>(proc_gid)];
  COSCHED_EXPECTS(p.live && p.machine >= 0);
  p.remaining = 0.0;
  p.live = false;
  const auto m = static_cast<std::size_t>(p.machine);
  machines_[m].erase(
      std::find(machines_[m].begin(), machines_[m].end(), proc_gid));
  p.machine = -1;

  JobState& job = jobs_[static_cast<std::size_t>(p.job)];
  COSCHED_EXPECTS(job.unfinished > 0);
  if (--job.unfinished == 0) {
    live_jobs_.erase(
        std::lower_bound(live_jobs_.begin(), live_jobs_.end(), p.job));
    job.finish_time = clock_.now();
    Real slowdown = (clock_.now() - job.admit_time) / job.spec.work;
    metrics_.on_completion(slowdown);
    JournalEvent done;
    done.job_id = p.job;
    done.kind = JournalEventKind::Completion;
    done.time = clock_.now();
    done.trace_id = Tracer::current_context().trace_id;
    done.detail = "slowdown=" + TextTable::fmt(slowdown);
    journal_.append(std::move(done));
  }
  // Only machine m lost a co-runner: every other machine holds the same
  // processes in the same order, so its degradations stand.
  refresh_degradations(m);
  maybe_replan();
}

void OnlineScheduler::handle_tick() {
  if (outstanding_work())
    queue_.push(clock_.now() + options_.admission.period,
                EventKind::ReplanTick, 0);
  else
    tick_armed_ = false;
  if (!pending_.empty()) replan("tick", false);
}

void OnlineScheduler::handle_deadline(std::int64_t job_id) {
  const JobState& job = jobs_[static_cast<std::size_t>(job_id)];
  if (job.admit_time >= 0.0) return;  // admitted long ago
  replan("deadline", false);
  if (jobs_[static_cast<std::size_t>(job_id)].admit_time < 0.0)
    queue_.push(clock_.now() + options_.admission.max_wait,
                EventKind::AdmissionDeadline, job_id);
}

void OnlineScheduler::maybe_replan() {
  AdmissionState state;
  state.now = clock_.now();
  state.pending_jobs = static_cast<std::int32_t>(pending_.size());
  state.running_processes = live_process_count();
  state.free_slots = free_slot_count();
  state.running_mean_degradation = mean_live_degradation();
  state.last_replan_time = last_replan_time_;
  if (policy_.should_replan(state)) replan("policy", true);
}

void OnlineScheduler::replan(const char* reason, bool allow_pure_rebalance) {
  // ---- admission batch -------------------------------------------------
  std::vector<std::int32_t> pending_sizes;
  pending_sizes.reserve(pending_.size());
  for (std::int64_t id : pending_)
    pending_sizes.push_back(jobs_[static_cast<std::size_t>(id)].spec.processes);
  std::int32_t admit =
      AdmissionPolicy::admit_fifo(pending_sizes, free_slot_count());
  // A replan that admits nothing is only worth its cost for the
  // threshold trigger (rebalancing a degraded placement, cooldown-limited).
  bool pure_rebalance =
      allow_pure_rebalance &&
      options_.admission.trigger == ReplanTrigger::DegradationThreshold &&
      live_process_count() > 0;
  if (admit == 0 && !pure_rebalance) return;

  // Every replan is a repair: the admitted processes are greedily seated
  // in the incumbent's free slots and the result is polished by
  // migration-aware swaps. When a batch of jobs takes every free slot the
  // fill has no idle slot to choose, and the polish alone is where the
  // replan oracle measured repair losing (two parallel jobs split across a
  // machine pair), so a migration-blind swap descent from the incumbent is
  // offered as a second start.
  std::int32_t admitted_procs = 0;
  for (std::int32_t k = 0; k < admit; ++k)
    admitted_procs += pending_sizes[static_cast<std::size_t>(k)];
  const bool fills_fleet = admit > 1 && admitted_procs == free_slot_count();

  WallTimer timer;
  COSCHED_TRACE_SPAN(replan_span, "online.replan", clock_.now(),
                     std::string("reason=") + reason);

  // Decision journal: one fleet-level event per fired replan, then one
  // per admitted job — all stamped with the trace that triggered us.
  const std::uint64_t decision_trace = Tracer::current_context().trace_id;
  {
    JournalEvent trigger;
    trigger.kind = JournalEventKind::BatchTrigger;
    trigger.time = clock_.now();
    trigger.trace_id = decision_trace;
    trigger.policy = reason;
    trigger.candidates = static_cast<std::int32_t>(pending_.size());
    trigger.detail = "admit=" + TextTable::fmt_int(admit) +
                     " free_slots=" + TextTable::fmt_int(free_slot_count());
    journal_.append(std::move(trigger));
  }
  std::vector<std::int64_t> admitted_ids(
      pending_.begin(), pending_.begin() + admit);
  {
    COSCHED_TRACE_SPAN(admission_span, "replan.admission", clock_.now());
    for (std::int32_t k = 0; k < admit; ++k) {
      std::int64_t job_id = pending_[static_cast<std::size_t>(k)];
      JobState& job = jobs_[static_cast<std::size_t>(job_id)];
      job.admit_time = clock_.now();
      job.unfinished = job.spec.processes;
      for (std::int32_t r = 0; r < job.spec.processes; ++r) {
        std::int64_t gid = static_cast<std::int64_t>(procs_.size());
        ProcState p;
        p.job = job_id;
        p.remaining = job.spec.work;
        p.live = true;
        procs_.push_back(p);
        job.procs.push_back(gid);
      }
      live_jobs_.insert(
          std::upper_bound(live_jobs_.begin(), live_jobs_.end(), job_id),
          job_id);
      Real wait = clock_.now() - job.spec.arrival_time;
      metrics_.on_admission(wait);
      JournalEvent admitted;
      admitted.job_id = job_id;
      admitted.kind = JournalEventKind::Admission;
      admitted.time = clock_.now();
      admitted.trace_id = decision_trace;
      admitted.policy = reason;
      admitted.candidates = admit;
      admitted.detail = "wait=" + TextTable::fmt(wait) +
                        " procs=" + TextTable::fmt_int(job.spec.processes);
      journal_.append(std::move(admitted));
    }
    pending_.erase(pending_.begin(), pending_.begin() + admit);
  }

  // ---- build the replan Problem over all live processes (the span keeps
  // its historical name: the benchmark and CI's profile check read it) ---
  auto input = std::make_unique<ReplanInput>();
  Problem& problem = input->problem;
  {
    COSCHED_TRACE_SPAN(build_span, "replan.fresh_solve", clock_.now());
    problem.machine = machine_by_cores(options_.cores);
    std::vector<Real> rates;
    std::vector<Real> sens;
    local_to_gid_.clear();
    for (std::int64_t job_id : live_jobs_) {
      const JobState& job = jobs_[static_cast<std::size_t>(job_id)];
      std::int32_t live_procs = 0;
      for (std::int64_t gid : job.procs)
        if (procs_[static_cast<std::size_t>(gid)].live) ++live_procs;
      COSCHED_ENSURES(live_procs == job.unfinished);
      problem.batch.add_job(job.spec.name, job.spec.kind, live_procs);
      for (std::int64_t gid : job.procs) {
        ProcState& p = procs_[static_cast<std::size_t>(gid)];
        if (!p.live) continue;
        p.local_id = static_cast<std::int32_t>(local_to_gid_.size());
        local_to_gid_.push_back(gid);
        rates.push_back(job.spec.miss_rate);
        sens.push_back(job.spec.sensitivity);
      }
    }
    std::int32_t idle = 0;
    while (static_cast<std::int32_t>(local_to_gid_.size()) < total_cores()) {
      problem.batch.add_job("idle" + std::to_string(idle++),
                            JobKind::Imaginary, 1);
      local_to_gid_.push_back(-1);
      rates.push_back(0.0);
      sens.push_back(0.0);
    }

    // S-curve capacity, the builders' convention: the mean miss rate of the
    // paper's [0.15, 0.75] range times the u - 1 co-runners.
    Real capacity = 0.45 * static_cast<Real>(options_.cores - 1);
    auto model = std::make_shared<SyntheticDegradationModel>(
        std::move(rates), std::move(sens), capacity,
        SyntheticLandscape::Threshold);
    problem.contention_model = model;
    problem.full_model = model;
    problem.check();
  }

  // ---- alignment: the incumbent (running processes stay, everyone else
  // fills slots in machine order) is repaired — admitted processes seated
  // greedily, then migration-aware swaps ----------------------------------
  ReplanResult result;
  {
    COSCHED_TRACE_SPAN(alignment_span, "replan.alignment", clock_.now());
    const std::size_t u = options_.cores;
    Solution& incumbent = input->incumbent;
    incumbent.machines.resize(machines_.size());
    for (std::size_t m = 0; m < machines_.size(); ++m)
      for (std::int64_t gid : machines_[m])
        incumbent.machines[m].push_back(
            procs_[static_cast<std::size_t>(gid)].local_id);
    std::vector<ProcessId> free_movers;
    std::vector<Real> move_weight(local_to_gid_.size(), 0.0);
    for (std::size_t local = 0; local < local_to_gid_.size(); ++local) {
      std::int64_t gid = local_to_gid_[local];
      if (gid >= 0 && procs_[static_cast<std::size_t>(gid)].machine >= 0) {
        move_weight[local] = 1.0;  // previously running: moving it costs
      } else {
        free_movers.push_back(static_cast<ProcessId>(local));
      }
    }
    std::size_t next_free = 0;
    for (auto& machine : incumbent.machines)
      while (machine.size() < u)
        machine.push_back(free_movers[next_free++]);
    COSCHED_ENSURES(next_free == free_movers.size());

    ReplanOptions replan_options;
    replan_options.migration_cost = options_.migration_cost;
    replan_options.max_passes = options_.replan_passes;
    replan_options.move_weight = move_weight;
    for (std::int64_t job_id : admitted_ids)
      for (std::int64_t gid : jobs_[static_cast<std::size_t>(job_id)].procs)
        replan_options.fill.push_back(
            procs_[static_cast<std::size_t>(gid)].local_id);
    input->move_weight = std::move(move_weight);
    Solution descent;
    if (fills_fleet) descent = improve_by_swaps(problem, incumbent).solution;
    result = replan_with_migrations(problem, incumbent,
                                    fills_fleet ? &descent : nullptr,
                                    replan_options);
  }

  // ---- commit the placement -------------------------------------------
  // The repair priced the adopted placement: its per-process degradations
  // come with the result.
  COSCHED_TRACE_SPAN(commit_span, "replan.commit", clock_.now());
  // Pre-commit machine of every live process, by local id: the commit loop
  // overwrites it, and the delta is what the journal's migration events
  // report.
  std::vector<std::int32_t> prev_machine(local_to_gid_.size(), -1);
  for (std::size_t local = 0; local < local_to_gid_.size(); ++local)
    if (local_to_gid_[local] >= 0)
      prev_machine[local] =
          procs_[static_cast<std::size_t>(local_to_gid_[local])].machine;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].clear();
    for (ProcessId local : result.placement.machines[m]) {
      std::int64_t gid = local_to_gid_[static_cast<std::size_t>(local)];
      if (gid < 0) continue;  // idle slot
      ProcState& p = procs_[static_cast<std::size_t>(gid)];
      p.machine = static_cast<std::int32_t>(m);
      p.degradation = result.per_process[static_cast<std::size_t>(local)];
      machines_[m].push_back(gid);
    }
    std::sort(machines_[m].begin(), machines_[m].end());
  }
  last_replan_ = std::move(input);
  last_replan_time_ = clock_.now();

  // Per-job attribution: the placement every admitted job got (machine,
  // co-runners, predicted delta of the adopted schedule vs staying put)
  // and one migration event per job whose running processes moved.
  const Real decision_delta = result.combined - result.stay_combined;
  auto co_runner_jobs = [&](std::int64_t self_id) {
    std::vector<std::int64_t> co;
    const JobState& job = jobs_[static_cast<std::size_t>(self_id)];
    for (std::int64_t gid : job.procs) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      if (!p.live || p.machine < 0) continue;
      for (std::int64_t other :
           machines_[static_cast<std::size_t>(p.machine)]) {
        std::int64_t other_job = procs_[static_cast<std::size_t>(other)].job;
        if (other_job != self_id) co.push_back(other_job);
      }
    }
    std::sort(co.begin(), co.end());
    co.erase(std::unique(co.begin(), co.end()), co.end());
    return co;
  };
  auto first_machine = [&](std::int64_t job_id) {
    const JobState& job = jobs_[static_cast<std::size_t>(job_id)];
    for (std::int64_t gid : job.procs) {
      const ProcState& p = procs_[static_cast<std::size_t>(gid)];
      if (p.live && p.machine >= 0) return p.machine;
    }
    return static_cast<std::int32_t>(-1);
  };
  for (std::int64_t job_id : admitted_ids) {
    JournalEvent placed;
    placed.job_id = job_id;
    placed.kind = JournalEventKind::Placement;
    placed.time = clock_.now();
    placed.trace_id = decision_trace;
    placed.policy = "repair";  // the one online planner
    placed.machine = first_machine(job_id);
    placed.candidates = options_.machines;
    placed.degradation_delta = decision_delta;
    placed.co_runners = co_runner_jobs(job_id);
    placed.detail = std::string("reason=") + reason;
    journal_.append(std::move(placed));
  }
  std::map<std::int64_t, std::string> moved;  // job -> "p3:m0->m2 ..."
  // Local ids run in ascending job id, then ascending gid within a job.
  for (std::size_t local = 0; local < prev_machine.size(); ++local) {
    if (prev_machine[local] < 0) continue;  // idle slot or just admitted
    const std::int64_t gid = local_to_gid_[local];
    const ProcState& p = procs_[static_cast<std::size_t>(gid)];
    if (p.machine == prev_machine[local]) continue;
    std::string& detail = moved[p.job];
    if (!detail.empty()) detail += " ";
    detail += "p" + std::to_string(gid) + ":m" +
              std::to_string(prev_machine[local]) + "->m" +
              std::to_string(p.machine);
  }
  for (auto& [job_id, detail] : moved) {
    JournalEvent migrated;
    migrated.job_id = job_id;
    migrated.kind = JournalEventKind::Migration;
    migrated.time = clock_.now();
    migrated.trace_id = decision_trace;
    migrated.policy = "repair";
    migrated.machine = first_machine(job_id);
    migrated.candidates = options_.machines;
    migrated.degradation_delta = decision_delta;
    migrated.co_runners = co_runner_jobs(job_id);
    migrated.detail = std::move(detail);
    journal_.append(std::move(migrated));
  }

  ReplanRecord record;
  record.time = clock_.now();
  record.admitted = admit;
  record.migrations = result.migrations;
  record.stay_combined = result.stay_combined;
  record.combined = result.combined;
  record.degradation = result.degradation;
  record.swaps_priced = result.swaps_priced;
  record.swaps_applied = result.swaps_applied;
  record.assignments = result.assignments;
  record.solve_wall_seconds = timer.seconds();
  record.trace_id = Tracer::current_context().trace_id;
  metrics_.on_replan(std::move(record));
}

}  // namespace cosched
