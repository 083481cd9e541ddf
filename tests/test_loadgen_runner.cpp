// LoadRunner integration tests: generated load against a real CoschedServer
// over loopback. Net-labelled — these open sockets.
#include <gtest/gtest.h>

#include "loadgen/runner.hpp"
#include "loadgen/shapes.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

namespace cosched {
namespace {

/// `count` evenly spaced send offsets at `rate_rps`: no arrival variance,
/// so each test controls exactly how far ahead of the service it runs.
std::vector<Real> evenly_spaced(std::int32_t count, Real rate_rps) {
  std::vector<Real> schedule;
  for (std::int32_t k = 1; k <= count; ++k)
    schedule.push_back(static_cast<Real>(k) / rate_rps);
  return schedule;
}

/// A small virtual-time server every test drives; each replan stays cheap
/// (few machines, every-k admission) so the suite runs in seconds.
class LoadRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    options.worker_threads = 4;
    options.request_deadline_seconds = 60.0;
    options.service.wall_clock = false;
    options.service.scheduler.cores = 4;
    options.service.scheduler.machines = 4;
    options.service.scheduler.admission.every_k = 4;
    server_ = std::make_unique<CoschedServer>(options);
    std::string error;
    ASSERT_TRUE(server_->start(error)) << error;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::uint64_t drain_completions() {
    ClientOptions options;
    options.port = server_->port();
    options.request_timeout_seconds = 60.0;
    options.max_attempts = 1;
    CoschedClient client(options);
    DrainResponse drained;
    EXPECT_TRUE(client.drain(drained).ok());
    return drained.completions;
  }

  std::unique_ptr<CoschedServer> server_;
};

TEST_F(LoadRunnerTest, OpenLoopExcludesWarmup) {
  ShapeSpec shape;
  shape.work_lo = 1.0;
  shape.work_hi = 4.0;
  std::vector<TraceJob> jobs = build_jobs(shape, 40);
  std::vector<Real> schedule = evenly_spaced(40, 100.0);  // 0.4 s of traffic

  RunnerOptions options;
  options.port = server_->port();
  options.mode = LoadMode::Open;
  options.concurrency = 4;
  options.warmup = 8;
  options.virtual_rate = 0.5;
  LoadResult result = LoadRunner(options).run(jobs, schedule);

  // Every request ran exactly once and landed in the right phase bucket.
  EXPECT_EQ(result.total_errors(), 0u);
  EXPECT_EQ(result.warmup.requests, 8u);
  EXPECT_EQ(result.measure.requests, 32u);
  // Only measure-phase samples reach the reported histogram.
  EXPECT_EQ(result.measure.latency_ms.count(), 32u);
  EXPECT_GT(result.offered_rps, 0.0);
  EXPECT_GT(result.achieved_rps(), 0.0);
  // The server really accepted all 40 (warm-up is sent, just not measured).
  EXPECT_EQ(drain_completions(), 40u);
}

TEST_F(LoadRunnerTest, ClosedLoopStreamsCompleteEverything) {
  ShapeSpec shape;
  shape.work_lo = 1.0;
  shape.work_hi = 4.0;
  shape.seed = 9;
  std::vector<TraceJob> jobs = build_jobs(shape, 30);

  RunnerOptions options;
  options.port = server_->port();
  options.mode = LoadMode::Closed;
  options.concurrency = 3;  // stream count in closed mode
  options.warmup = 5;
  options.virtual_rate = 0.5;
  LoadResult result = LoadRunner(options).run(jobs, {});

  EXPECT_EQ(result.total_errors(), 0u);
  EXPECT_EQ(result.total_requests(), 30u);
  EXPECT_EQ(result.warmup.requests, 5u);
  EXPECT_EQ(result.measure.requests, 25u);
  // Closed mode has no offered rate and never sends late.
  EXPECT_EQ(result.offered_rps, 0.0);
  EXPECT_EQ(result.measure.late_sends, 0u);
  EXPECT_EQ(drain_completions(), 30u);
}

TEST_F(LoadRunnerTest, OverdrivenOpenLoopReportsLateSends) {
  ShapeSpec shape;
  shape.work_lo = 1.0;
  shape.work_hi = 2.0;
  std::vector<TraceJob> jobs = build_jobs(shape, 96);

  // A 1 MHz schedule (1 µs gaps, far below any loopback round trip) with a
  // single connection cannot be honoured however fast the server is: the
  // backlog grows by one round trip per send. The generator must *report*
  // it (late sends), not hide it by silently stretching the schedule —
  // that is the coordinated-omission contract.
  std::vector<Real> schedule = evenly_spaced(96, 1e6);

  RunnerOptions options;
  options.port = server_->port();
  options.mode = LoadMode::Open;
  options.concurrency = 1;
  options.late_threshold_ms = 0.5;
  options.virtual_rate = 0.5;
  LoadResult result = LoadRunner(options).run(jobs, schedule);

  EXPECT_EQ(result.total_errors(), 0u);
  EXPECT_EQ(result.total_requests(), 96u);
  std::uint64_t late = result.warmup.late_sends + result.measure.late_sends;
  EXPECT_GT(late, 12u);  // the backlog passes 0.5 ms within a few dozen sends
  EXPECT_GT(result.measure.max_late_ms, 0.5);
  EXPECT_EQ(drain_completions(), 96u);
}

}  // namespace
}  // namespace cosched
