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

  std::string text = profiler.render_text();
  EXPECT_NE(text.find("serve count=1 total_ms=0.004 self_ms=0.002"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  decode count=1"), std::string::npos) << text;
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
    tracer.set_sample_every(1);
    tracer.set_always_keep({});
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

// (b) tracer on but the trace head-sampled out: profiling ignores head
// sampling, so the phase still counts while the trace records nothing.
TEST_F(ProfiledSpan, ProfilesSampledOutTraces) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_sample_every(1000000);  // effectively: drop every trace
  std::uint64_t dropped_id = 0;
  for (std::uint64_t id = 1; id <= 64 && dropped_id == 0; ++id)
    if (!tracer.make_context(id).sampled) dropped_id = id;
  ASSERT_NE(dropped_id, 0u) << "no sampled-out id found in 64 tries";
  Profiler::global().set_enabled(true);
  {
    TraceContextScope scope(tracer.make_context(dropped_id));
    COSCHED_TRACE_SPAN(span, "test.phase");
  }
  std::map<std::string, Profiler::NodeView> nodes = by_path(Profiler::global());
  ASSERT_EQ(nodes.count("test.phase"), 1u);
  EXPECT_EQ(nodes["test.phase"].count, 1u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

// (c) tracer on, profiler off: begin + end are recorded, the profile stays
// empty.
TEST_F(ProfiledSpan, TracesWithProfilerOff) {
  Tracer::global().set_enabled(true);
  { COSCHED_TRACE_SPAN(span, "test.phase"); }
  EXPECT_EQ(Tracer::global().event_count(), 2u);
  EXPECT_NE(Tracer::global().dump_text().find("\nspan test.phase\n"),
            std::string::npos);
  EXPECT_EQ(Profiler::global().render_collapsed(), "");
}

// (d) both decisions are latched at construction: toggling either switch
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
  ASSERT_EQ(nodes.count("opened.on"), 1u) << profiler.render_text();
  EXPECT_EQ(nodes["opened.on"].count, 1u);
  ASSERT_EQ(nodes.count("after"), 1u) << profiler.render_text();
  EXPECT_EQ(nodes["after"].depth, 0);
  EXPECT_EQ(tracer.event_count(), 4u);
  // Both spans at depth 0: "after" is not indented under "opened.on".
  EXPECT_NE(tracer.dump_text().find("\nspan opened.on\nspan after\n"),
            std::string::npos)
      << tracer.dump_text();
}

// The acceptance pin behind /debug/profile: on a replayed workload every
// replan has exactly one replan.fresh_solve phase (the span keeps its name;
// it now times the Problem build), and no solver search runs anywhere under
// online.replan — every replan, cold fleets included, is a repair of the
// incumbent.
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
  ASSERT_EQ(nodes.count("online.replan"), 1u) << profiler.render_text();
  ASSERT_EQ(nodes.count("online.replan;replan.fresh_solve"), 1u)
      << profiler.render_text();
  EXPECT_EQ(nodes["online.replan"].count, replans);
  EXPECT_EQ(nodes["online.replan;replan.fresh_solve"].count, replans);
  for (const auto& [path, node] : nodes)
    EXPECT_EQ(path.find("astar.search"), std::string::npos)
        << path << " ran " << node.count << " times";

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
