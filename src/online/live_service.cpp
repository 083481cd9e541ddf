#include "online/live_service.hpp"

#include <algorithm>
#include <chrono>

namespace cosched {

const char* to_string(SubmitError error) {
  switch (error) {
    case SubmitError::None: return "none";
    case SubmitError::Draining: return "draining";
    case SubmitError::Invalid: return "invalid";
  }
  return "?";
}

LiveSchedulerService::LiveSchedulerService(LiveServiceOptions options)
    : options_(options),
      total_cores_(options.scheduler.machines *
                   static_cast<std::int32_t>(options.scheduler.cores)),
      scheduler_(options.scheduler),
      start_(std::chrono::steady_clock::now()),
      probe_replan_wall_(replan_duration_metric_edges()) {
  COSCHED_EXPECTS(options_.wall_time_scale > 0.0);
  scheduler_.begin();
  thread_ = std::thread(&LiveSchedulerService::thread_main, this);
}

LiveSchedulerService::~LiveSchedulerService() { stop(); }

void LiveSchedulerService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_requested_ && !thread_.joinable()) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<std::string> LiveSchedulerService::write_metrics_csvs(
    const std::string& dir, const std::string& prefix) {
  COSCHED_EXPECTS(!thread_.joinable());  // stop() first
  return scheduler_.metrics().write_csvs(dir, prefix);
}

std::size_t LiveSchedulerService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commands_.size();
}

LoadProbe LiveSchedulerService::load() const {
  LoadProbe probe;
  probe.queue_depth = queue_depth();
  probe.arrivals = probe_arrivals_.load(std::memory_order_relaxed);
  probe.completions = probe_completions_.load(std::memory_order_relaxed);
  probe.virtual_now = probe_virtual_now_.load(std::memory_order_relaxed);
  probe.replan_p95_seconds =
      probe_replan_p95_.load(std::memory_order_relaxed);
  return probe;
}

void LiveSchedulerService::refresh_load_probe() {
  const SchedulerMetrics& m = scheduler_.metrics();
  probe_arrivals_.store(m.arrivals(), std::memory_order_relaxed);
  probe_completions_.store(m.completions(), std::memory_order_relaxed);
  probe_virtual_now_.store(scheduler_.now(), std::memory_order_relaxed);
  const std::vector<ReplanRecord>& records = m.replan_records();
  if (records.size() > replan_records_seen_) {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    for (std::size_t i = replan_records_seen_; i < records.size(); ++i)
      probe_replan_wall_.add(records[i].solve_wall_seconds);
    replan_records_seen_ = records.size();
    probe_replan_p95_.store(probe_replan_wall_.quantile(0.95),
                            std::memory_order_relaxed);
  }
}

Real LiveSchedulerService::wall_virtual_now() const {
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  return options_.wall_time_scale * static_cast<Real>(elapsed.count());
}

std::future<LiveSchedulerService::CommandResult> LiveSchedulerService::enqueue(
    Command command) {
  command.trace = Tracer::current_context();
  std::future<CommandResult> future = command.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // After stop the command is dropped; its dying promise breaks the
    // future and await() reports failure.
    if (!stop_requested_) commands_.push_back(std::move(command));
  }
  wake_.notify_all();
  return future;
}

bool LiveSchedulerService::await(std::future<CommandResult>& future,
                                 CommandResult& result,
                                 double timeout_seconds) {
  try {
    if (timeout_seconds >= 0.0 &&
        future.wait_for(std::chrono::duration<double>(timeout_seconds)) !=
            std::future_status::ready)
      return false;
    result = future.get();
    return true;
  } catch (const std::future_error&) {
    return false;  // service stopped before the command ran
  }
}

bool LiveSchedulerService::submit(const TraceJob& spec, SubmitOutcome& out,
                                  double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Submit;
  command.job = spec;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.submit);
  return true;
}

bool LiveSchedulerService::job_status(std::int64_t job_id, StatusOutcome& out,
                                      double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Status;
  command.job_id = job_id;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.status);
  return true;
}

bool LiveSchedulerService::job_timeline(std::int64_t job_id,
                                        TimelineOutcome& out,
                                        double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Timeline;
  command.job_id = job_id;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.timeline);
  return true;
}

bool LiveSchedulerService::snapshot(ServiceSnapshot& out,
                                    double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Snapshot;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.snapshot);
  return true;
}

bool LiveSchedulerService::metrics(MetricsOutcome& out,
                                   double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Metrics;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.metrics);
  return true;
}

bool LiveSchedulerService::drain(DrainOutcome& out, double timeout_seconds) {
  Command command;
  command.kind = CommandKind::Drain;
  auto future = enqueue(std::move(command));
  CommandResult result;
  if (!await(future, result, timeout_seconds)) return false;
  out = std::move(result.drain);
  return true;
}

void LiveSchedulerService::thread_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (stop_requested_) break;
    if (!commands_.empty()) {
      Command command = std::move(commands_.front());
      commands_.pop_front();
      lock.unlock();
      execute(command);
      refresh_load_probe();
      lock.lock();
      continue;
    }
    if (!options_.wall_clock) {
      wake_.wait(lock,
                 [&] { return stop_requested_ || !commands_.empty(); });
      continue;
    }
    // Wall-clock bridge: catch virtual time up with real elapsed time,
    // then sleep until the next scheduled occurrence is due (or a command
    // arrives). Sleeps are capped so clock drift self-corrects.
    lock.unlock();
    Real target = wall_virtual_now();
    scheduler_.pump(target);
    refresh_load_probe();
    Real next = scheduler_.next_occurrence_time();
    lock.lock();
    if (stop_requested_ || !commands_.empty()) continue;
    if (next == kInfinity) {
      wake_.wait(lock,
                 [&] { return stop_requested_ || !commands_.empty(); });
      continue;
    }
    double delay = static_cast<double>(next - target) /
                   static_cast<double>(options_.wall_time_scale);
    if (delay <= 0.0) continue;  // due now: pump again right away
    wake_.wait_for(lock, std::chrono::duration<double>(
                             std::min(delay, 0.25)));
  }
}

void LiveSchedulerService::execute(Command& command) {
  TraceContextScope trace_scope(command.trace);
  CommandResult result;
  switch (command.kind) {
    case CommandKind::Submit: {
      SubmitOutcome& out = result.submit;
      if (draining_.load(std::memory_order_acquire)) {
        out.error = SubmitError::Draining;
        out.virtual_now = scheduler_.now();
        break;
      }
      const TraceJob& job = command.job;
      if (job.processes < 1 || job.processes > total_cores_ ||
          !trace_job_fields_valid(job)) {
        out.error = SubmitError::Invalid;
        out.virtual_now = scheduler_.now();
        break;
      }
      TraceJob spec = job;
      if (options_.wall_clock) {
        Real target = wall_virtual_now();
        scheduler_.pump(target);
        spec.arrival_time = target;
      }
      std::int64_t id = scheduler_.submit(spec);
      // The scheduler may have clamped the arrival up to "now"; process
      // the arrival (and everything due before it) right away, so the
      // response already reflects an admission if the trigger fired.
      Real arrival = scheduler_.job_status(id).arrival_time;
      scheduler_.pump(arrival);
      out.error = SubmitError::None;
      out.job_id = id;
      out.virtual_now = scheduler_.now();
      out.status = scheduler_.job_status(id);
      break;
    }
    case CommandKind::Status: {
      StatusOutcome& out = result.status;
      out.virtual_now = scheduler_.now();
      if (command.job_id >= 0 && command.job_id < scheduler_.job_count()) {
        out.found = true;
        out.status = scheduler_.job_status(command.job_id);
      }
      break;
    }
    case CommandKind::Timeline: {
      TimelineOutcome& out = result.timeline;
      out.virtual_now = scheduler_.now();
      if (command.job_id >= 0 && command.job_id < scheduler_.job_count()) {
        out.found = true;
        out.timeline = scheduler_.job_timeline(command.job_id);
      }
      break;
    }
    case CommandKind::Snapshot:
      result.snapshot = scheduler_.service_snapshot();
      break;
    case CommandKind::Metrics: {
      MetricsOutcome& out = result.metrics;
      const SchedulerMetrics& m = scheduler_.metrics();
      out.virtual_now = scheduler_.now();
      out.arrivals = m.arrivals();
      out.admissions = m.admissions();
      out.completions = m.completions();
      out.replans = m.replans();
      out.migrations = m.migrations();
      out.running_mean_degradation = m.running_mean_degradation();
      out.cache = scheduler_.oracle_cache().stats();
      out.deterministic_csv = m.render_deterministic_csv();
      break;
    }
    case CommandKind::Drain: {
      draining_.store(true, std::memory_order_release);
      scheduler_.finish();
      result.drain.completions = scheduler_.metrics().completions();
      result.drain.virtual_now = scheduler_.now();
      break;
    }
  }
  command.promise.set_value(std::move(result));
}

}  // namespace cosched
