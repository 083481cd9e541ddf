// Compile-time kill switch: this TU and the alert engine's source are built
// with -DCOSCHED_OBS_DISABLED into a binary of their own (see
// tests/CMakeLists.txt), so COSCHED_TRACE_SPAN must expand to a
// no-op — no events or profile phases recorded even with the runtime
// switches on — and the alert engine must refuse to tick or spawn its
// scrape thread. This is the overhead story for builds that want
// instrumentation gone entirely.
#include <gtest/gtest.h>

#include "obs/alerts.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace cosched {
namespace {

#ifndef COSCHED_OBS_DISABLED
#error "this TU must be compiled with COSCHED_OBS_DISABLED"
#endif

TEST(ObsTracingDisabled, MacrosAreNoOpsEvenWhenRuntimeEnabled) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.reset();
  tracer.set_enabled(true);

  {
    COSCHED_TRACE_SPAN(span, "compiled.out", 1.0, "k=v");
    COSCHED_TRACE_SPAN(nested, "compiled.out.nested");
  }

  tracer.set_enabled(false);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.export_chrome_json(), "[]\n");
  tracer.reset();
}

// The macros must also be valid statements in branch positions — the
// do-while no-op form, not a bare expansion that breaks if/else.
TEST(ObsTracingDisabled, MacrosParseInBranchPositions) {
  bool flag = true;
  if (flag)
    COSCHED_TRACE_SPAN(then_span, "then-branch");
  else
    COSCHED_TRACE_SPAN(else_span, "else-branch");
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

// The span macro is also the profiler's phase scope: compiled out, it must
// not leave a phase behind either.
TEST(ObsProfilingDisabled, PhaseMacroLeavesNoResidue) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);
  {
    COSCHED_TRACE_SPAN(phase, "compiled.out.phase");
  }
  if (true)
    COSCHED_TRACE_SPAN(branch_phase, "branch-position");
  profiler.set_enabled(false);
  EXPECT_EQ(profiler.render_collapsed(), "");
  profiler.reset();
}

TEST(ObsAlertsDisabled, EngineRefusesToTickOrStart) {
  static_assert(kAlertsDisabled, "kill switch must flip the constant");
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "never";
  rule.histogram = "cosched_lat_seconds";
  rule.burn_factor = 0.001;
  rule.for_seconds = 0.0;
  options.rules.rules.push_back(rule);
  AlertEngine engine(std::move(options));
  EXPECT_FALSE(
      engine.tick("cosched_lat_seconds_bucket{le=\"+Inf\"} 10\n", 0.0));
  EXPECT_FALSE(engine.start());
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(engine.fired_total(), 0u);
  EXPECT_EQ(engine.snapshot_count(), 0u);
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

}  // namespace
}  // namespace cosched
