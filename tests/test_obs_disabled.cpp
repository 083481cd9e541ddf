// Compile-time kill switch: this TU is built with -DCOSCHED_OBS_DISABLED
// into a binary of its own (see tests/CMakeLists.txt), so
// COSCHED_TRACE_SPAN must expand to a no-op — no events or profile phases
// recorded even with the runtime switches on. This is the overhead story
// for builds that want instrumentation gone entirely.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cosched
