#include "loadgen/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "loadgen/arrival.hpp"
#include "rpc/client.hpp"

namespace cosched {

LoadRunner::LoadRunner(RunnerOptions options) : options_(std::move(options)) {
  COSCHED_EXPECTS(options_.concurrency >= 1);
  COSCHED_EXPECTS(options_.late_threshold_ms >= 0.0);
  COSCHED_EXPECTS(options_.virtual_rate >= 0.0);
}

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerStats {
  PhaseStats phases[2];  ///< indexed by LoadPhase

  PhaseStats& of(LoadPhase phase) {
    return phases[static_cast<int>(phase)];
  }
};

/// One worker: pulls global indices until the list is exhausted. The
/// atomic counter is the only shared state — each worker owns its client
/// connection and its accumulator.
void worker_main(const RunnerOptions& options,
                 const std::vector<TraceJob>& jobs,
                 const std::vector<Real>& schedule,
                 const PhaseController& phases, Clock::time_point t0,
                 std::atomic<std::uint64_t>& next_index, WorkerStats& stats) {
  ClientOptions client_options;
  client_options.host = options.host;
  client_options.port = options.port;
  client_options.request_timeout_seconds = options.request_timeout_seconds;
  client_options.max_attempts = options.max_attempts;
  CoschedClient client(client_options);

  const bool open = options.mode == LoadMode::Open;
  while (true) {
    std::uint64_t i = next_index.fetch_add(1, std::memory_order_relaxed);
    if (i >= jobs.size()) break;
    PhaseStats& bucket = stats.of(phases.classify(i));

    Real late_ms = 0.0;
    if (open) {
      auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[i]));
      auto now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
      } else {
        late_ms =
            std::chrono::duration<double, std::milli>(now - due).count();
      }
    }

    auto send_at = Clock::now();
    Real send_s = std::chrono::duration<double>(send_at - t0).count();
    TraceJob job = jobs[i];
    // Arrival stamp: the schedule slot (open) or the real elapsed time
    // (closed), rescaled to the configured virtual rate so fleet load does
    // not track the RPC request rate (see RunnerOptions::virtual_rate).
    Real stamp = open ? schedule[i] : send_s;
    if (options.virtual_rate > 0.0) {
      if (open) {
        // schedule carries `offered` arrivals per real second on average;
        // scaling by offered / virtual_rate re-times the same process to
        // virtual_rate arrivals per virtual second, shape preserved.
        Real offered = schedule_offered_rps(schedule);
        if (offered > 0.0) stamp = schedule[i] * (offered / options.virtual_rate);
      } else {
        stamp = static_cast<Real>(i) / options.virtual_rate;
      }
    }
    job.arrival_time = stamp;

    SubmitJobResponse reply;
    RpcError error = client.submit_job(job, reply);
    auto done_at = Clock::now();

    bucket.first_send_s = std::min(bucket.first_send_s, send_s);
    bucket.last_finish_s =
        std::max(bucket.last_finish_s,
                 std::chrono::duration<double>(done_at - t0).count());
    if (late_ms > options.late_threshold_ms) {
      ++bucket.late_sends;
      bucket.sum_late_ms += late_ms;
      bucket.max_late_ms = std::max(bucket.max_late_ms, late_ms);
    }
    if (error.ok()) {
      ++bucket.requests;
      bucket.latency_ms.add(
          std::chrono::duration<double, std::milli>(done_at - send_at)
              .count());
    } else {
      ++bucket.errors;
    }
  }
}

}  // namespace

LoadResult LoadRunner::run(const std::vector<TraceJob>& jobs,
                           const std::vector<Real>& schedule) const {
  const bool open = options_.mode == LoadMode::Open;
  if (open) COSCHED_EXPECTS(schedule.size() == jobs.size());

  LoadResult result;
  if (jobs.empty()) return result;
  PhaseController phases(jobs.size(), options_.warmup);

  std::size_t worker_count = std::min(options_.concurrency, jobs.size());
  std::vector<WorkerStats> stats(worker_count);
  std::atomic<std::uint64_t> next_index{0};
  Clock::time_point t0 = Clock::now();

  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w)
    workers.emplace_back(worker_main, std::cref(options_), std::cref(jobs),
                         std::cref(schedule), std::cref(phases), t0,
                         std::ref(next_index), std::ref(stats[w]));
  for (std::thread& t : workers) t.join();

  for (WorkerStats& w : stats) {
    result.warmup.merge(w.of(LoadPhase::Warmup));
    result.measure.merge(w.of(LoadPhase::Measure));
  }
  result.offered_rps = open ? schedule_offered_rps(schedule) : 0.0;
  return result;
}

}  // namespace cosched
