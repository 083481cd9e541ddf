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
  if (options_.wall_clock)
    pump_ = std::thread(&LiveSchedulerService::pump_main, this);
}

LiveSchedulerService::~LiveSchedulerService() { stop(); }

void LiveSchedulerService::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_ = true;
    freed_.wait(lock, [this] { return !busy_; });  // the holder finishes
  }
  freed_.notify_all();  // waiters give up
  wake_.notify_all();   // the pump exits
  if (pump_.joinable()) pump_.join();
}

std::vector<std::string> LiveSchedulerService::write_metrics_csvs(
    const std::string& dir, const std::string& prefix) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    COSCHED_EXPECTS(stopped_);  // stop() first
  }
  return scheduler_.metrics().write_csvs(dir, prefix);
}

bool LiveSchedulerService::acquire(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto settled = [this] { return !busy_ || stopped_; };
  if (!settled()) {
    waiting_.fetch_add(1, std::memory_order_relaxed);
    if (timeout_seconds < 0.0)
      freed_.wait(lock, settled);
    else
      freed_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      settled);
    waiting_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (busy_ || stopped_) return false;
  busy_ = true;
  return true;
}

void LiveSchedulerService::release() {
  std::lock_guard<std::mutex> lock(mutex_);
  busy_ = false;
  // During stop() every waiter must see the flag, stop() itself included.
  if (stopped_)
    freed_.notify_all();
  else
    freed_.notify_one();
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

void LiveSchedulerService::schedule_changed() {
  if (!options_.wall_clock) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pump_woken_ = true;
  }
  wake_.notify_one();
}

bool LiveSchedulerService::submit(const TraceJob& spec, SubmitOutcome& out,
                                  double timeout_seconds) {
  return call(
      [&](OnlineScheduler&) {
        SubmitOutcome outcome = admit(spec);
        schedule_changed();
        return outcome;
      },
      out, timeout_seconds);
}

bool LiveSchedulerService::drain(DrainOutcome& out, double timeout_seconds) {
  return call(
      [this](OnlineScheduler& scheduler) {
        draining_.store(true, std::memory_order_release);
        scheduler.finish();
        schedule_changed();
        return DrainOutcome{scheduler.metrics().completions(),
                            scheduler.now()};
      },
      out, timeout_seconds);
}

void LiveSchedulerService::pump_main() {
  // Wall-clock bridge: catch virtual time up with real elapsed time, then
  // sleep until the next scheduled occurrence is due (or a command may
  // have moved it). Sleeps are capped so clock drift self-corrects.
  while (acquire(-1.0)) {
    Real target = wall_virtual_now();
    scheduler_.pump(target);
    refresh_load_probe();
    Real next = scheduler_.next_occurrence_time();
    release();

    std::unique_lock<std::mutex> lock(mutex_);
    auto woken = [this] { return pump_woken_ || stopped_; };
    if (next == kInfinity) {
      wake_.wait(lock, woken);
    } else {
      // An occurrence already due (delay <= 0) pumps again at once.
      double delay = static_cast<double>(next - target) /
                     static_cast<double>(options_.wall_time_scale);
      wake_.wait_for(
          lock, std::chrono::duration<double>(std::clamp(delay, 0.0, 0.25)),
          woken);
    }
    pump_woken_ = false;
  }
}

SubmitOutcome LiveSchedulerService::admit(const TraceJob& job) {
  SubmitOutcome out;
  if (draining_.load(std::memory_order_acquire)) {
    out.error = SubmitError::Draining;
    out.virtual_now = scheduler_.now();
    return out;
  }
  if (job.processes < 1 || job.processes > total_cores_ ||
      !trace_job_fields_valid(job)) {
    out.error = SubmitError::Invalid;
    out.virtual_now = scheduler_.now();
    return out;
  }
  TraceJob spec = job;
  if (options_.wall_clock) {
    Real target = wall_virtual_now();
    scheduler_.pump(target);
    spec.arrival_time = target;
  }
  std::int64_t id = scheduler_.submit(spec);
  // The scheduler may have clamped the arrival up to "now"; process the
  // arrival (and everything due before it) right away, so the response
  // already reflects an admission if the trigger fired.
  Real arrival = scheduler_.job_status(id).arrival_time;
  scheduler_.pump(arrival);
  out.job_id = id;
  out.virtual_now = scheduler_.now();
  out.status = scheduler_.job_status(id);
  return out;
}

}  // namespace cosched
