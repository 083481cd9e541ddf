// Tests for the continuous profiler (src/obs/profiler): deterministic
// accumulation of the merged cross-thread wall-time tree, collapsed-stack
// rendering for flamegraph tooling, the span scope that feeds it under
// independent profiler/tracer switches, reset semantics, and the
// acceptance pin — replaying a workload under the global profiler shows
// one replan.fresh_solve phase per online.replan and no solver search
// beneath it (/debug/profile must show that shape).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "online/scheduler.hpp"
#include "online/trace.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

std::map<std::string, Profiler::NodeView> by_path(const Profiler& profiler) {
  std::map<std::string, Profiler::NodeView> out;
  for (const Profiler::NodeView& node : profiler.snapshot())
    out[node.path] = node;
  return out;
}

TEST(Profiler, MergedTreeFoldsThreadsByPath) {
  Profiler profiler;  // private instance: fully deterministic synthetic times
  profiler.enter("online.replan");
  profiler.enter("replan.fresh_solve");
  profiler.leave(700);
  profiler.enter("replan.commit");
  profiler.leave(100);
  profiler.leave(1000);
  profiler.enter("online.replan");
  profiler.enter("replan.fresh_solve");
  profiler.leave(800);
  profiler.leave(800);

  // A second thread's tree folds into the same paths at snapshot time.
  std::thread worker([&] {
    profiler.enter("online.replan");
    profiler.enter("replan.fresh_solve");
    profiler.leave(200);
    profiler.leave(200);
  });
  worker.join();

  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("online.replan"), 1u);
  EXPECT_EQ(nodes["online.replan"].count, 3u);
  EXPECT_EQ(nodes["online.replan"].total_ns, 2000u);
  EXPECT_EQ(nodes["online.replan"].depth, 0);
  // self = total minus direct children (1700 solve + 100 commit).
  EXPECT_EQ(nodes["online.replan"].self_ns, 200u);
  ASSERT_EQ(nodes.count("online.replan;replan.fresh_solve"), 1u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].count, 3u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].total_ns, 1700u);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].depth, 1);
  EXPECT_EQ(nodes["online.replan;replan.commit"].total_ns, 100u);
}

TEST(Profiler, CollapsedStackIsFlamegraphReady) {
  Profiler profiler;
  profiler.enter("serve");
  profiler.enter("decode");
  profiler.leave(2500);
  profiler.leave(4000);
  // One "path self_microseconds" line per visited node, parents first,
  // siblings sorted — byte-stable for a fixed enter/leave sequence.
  EXPECT_EQ(profiler.render_collapsed(), "serve 1\nserve;decode 2\n");
}

TEST(Profiler, ResetZeroesCountsButKeepsTheTreeUsable) {
  Profiler profiler;
  profiler.enter("phase");
  profiler.leave(5000);
  ASSERT_NE(profiler.render_collapsed(), "");
  profiler.reset();
  // Zeroed nodes disappear from the collapsed view (flamegraphs of an idle
  // window stay empty instead of full of stale paths)...
  EXPECT_EQ(profiler.render_collapsed(), "");
  // ...and the structure still accumulates fresh samples.
  profiler.enter("phase");
  profiler.leave(3000);
  EXPECT_EQ(profiler.render_collapsed(), "phase 3\n");
}

// The span scope feeds both consumers under independent runtime switches.
// Each case starts from idle global singletons and leaves them idle.
class ProfiledSpan : public ::testing::Test {
 protected:
  void SetUp() override { idle(); }
  void TearDown() override { idle(); }
  static void idle() {
    Tracer& tracer = Tracer::global();
    tracer.set_enabled(false);
    tracer.reset();
    Profiler::global().set_enabled(false);
    Profiler::global().reset();
  }
};

// (a) profiler on, tracer off: the phase counts, no trace event appears.
TEST_F(ProfiledSpan, ProfilesWithTracerOff) {
  Profiler::global().set_enabled(true);
  { COSCHED_TRACE_SPAN(span, "test.phase"); }
  std::map<std::string, Profiler::NodeView> nodes = by_path(Profiler::global());
  ASSERT_EQ(nodes.count("test.phase"), 1u);
  EXPECT_EQ(nodes["test.phase"].count, 1u);
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

// (b) tracer on, profiler off: begin + end are recorded, the profile stays
// empty.
TEST_F(ProfiledSpan, TracesWithProfilerOff) {
  Tracer::global().set_enabled(true);
  { COSCHED_TRACE_SPAN(span, "test.phase"); }
  EXPECT_EQ(Tracer::global().event_count(), 2u);
  // One complete span, the whole array.
  std::string json =
      testhelpers::without_wall_times(Tracer::global().export_chrome_json());
  EXPECT_EQ(json.rfind("[{\"name\":\"test.phase\",\"cat\":\"cosched\","
                       "\"ph\":\"X\",\"pid\":1,\"tid\":",
                       0),
            0u)
      << json;
  EXPECT_EQ(testhelpers::chrome_records(json).size(), 1u) << json;
  EXPECT_EQ(Profiler::global().render_collapsed(), "");
}

// (c) both decisions are latched at construction: toggling either switch
// mid-span neither drops a close nor adds an unopened one, so a following
// span lands at the top level of both the profile and the trace.
TEST_F(ProfiledSpan, MidSpanTogglesKeepBothSidesPaired) {
  Tracer& tracer = Tracer::global();
  Profiler& profiler = Profiler::global();
  {
    COSCHED_TRACE_SPAN(opened_off, "opened.off");
    tracer.set_enabled(true);
    profiler.set_enabled(true);
  }
  {
    COSCHED_TRACE_SPAN(opened_on, "opened.on");
    tracer.set_enabled(false);
    profiler.set_enabled(false);
  }
  tracer.set_enabled(true);
  profiler.set_enabled(true);
  { COSCHED_TRACE_SPAN(after, "after"); }

  EXPECT_EQ(profiler.render_collapsed().find("opened.off"), std::string::npos);
  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("opened.on"), 1u) << profiler.render_collapsed();
  EXPECT_EQ(nodes["opened.on"].count, 1u);
  ASSERT_EQ(nodes.count("after"), 1u) << profiler.render_collapsed();
  EXPECT_EQ(nodes["after"].depth, 0);
  EXPECT_EQ(tracer.event_count(), 4u);
  // Both spans at depth 0: "after" opens once "opened.on" has closed (the
  // stamps are rounded to 1 ns, hence the slack).
  std::string json = tracer.export_chrome_json();
  std::vector<std::string> records = testhelpers::chrome_records(json);
  ASSERT_EQ(records.size(), 2u) << json;
  EXPECT_EQ(records[0].rfind("{\"name\":\"opened.on\",", 0), 0u) << json;
  EXPECT_EQ(records[1].rfind("{\"name\":\"after\",", 0), 0u) << json;
  EXPECT_GE(testhelpers::chrome_number(records[1], "ts") + 0.002,
            testhelpers::chrome_number(records[0], "ts") +
                testhelpers::chrome_number(records[0], "dur"));
}

// The acceptance pin behind /debug/profile: on a replayed workload every
// replan has exactly one replan.fresh_solve phase (the span keeps its name;
// it now times the Problem build), and no solver search runs anywhere under
// online.replan — every replan, cold fleets included, is a repair of the
// incumbent, whose fill, polish and re-alignment have phases of their own.
TEST(Profiler, FreshSolveRunsOnlyWhenThereIsNothingToRepair) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);

  TraceSpec spec;
  spec.job_count = 24;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 8.0;
  spec.work_hi = 24.0;
  spec.parallel_fraction = 0.4;
  spec.max_parallel_processes = 4;
  spec.seed = 11;
  OnlineSchedulerOptions options;
  options.cores = 4;
  options.machines = 4;
  options.admission.every_k = 2;
  OnlineScheduler service(options);
  service.run(generate_trace(spec));
  profiler.set_enabled(false);

  const std::uint64_t replans = service.metrics().replans();
  EXPECT_GT(replans, 0u);

  std::map<std::string, Profiler::NodeView> nodes = by_path(profiler);
  ASSERT_EQ(nodes.count("online.replan"), 1u) << profiler.render_collapsed();
  ASSERT_EQ(nodes.count("online.replan;replan.fresh_solve"), 1u)
      << profiler.render_collapsed();
  EXPECT_EQ(nodes["online.replan"].count, replans);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].count, replans);
  for (const auto& [path, node] : nodes)
    EXPECT_EQ(path.find("astar.search"), std::string::npos)
        << path << " ran " << node.count << " times";

  // Inside the alignment, every repair fills and polishes once, and
  // re-aligns once when its engine took a swap.
  const std::string alignment = "online.replan;replan.alignment";
  EXPECT_EQ(nodes[alignment + ";replan.fill"].count, replans);
  EXPECT_EQ(nodes[alignment + ";replan.polish"].count, replans);
  std::uint64_t swapped = 0;
  for (const ReplanRecord& r : service.metrics().replan_records())
    if (r.swaps_applied > 0) ++swapped;
  EXPECT_GT(swapped, 0u);
  EXPECT_EQ(nodes[alignment + ";replan.realign"].count, swapped)
      << profiler.render_collapsed();

  // The collapsed render carries the full paths flamegraph.pl folds.
  std::string collapsed = profiler.render_collapsed();
  EXPECT_NE(collapsed.find("online.replan "), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("online.replan;replan.fresh_solve"),
            std::string::npos)
      << collapsed;
  profiler.reset();
}

}  // namespace
}  // namespace cosched
