// Continuous wall-time profiler for the replan hot path.
//
// Where the Tracer answers "what happened on this request", the Profiler
// answers "where does the time go overall": every TraceSpan (obs/trace.hpp)
// is also a profiler phase, accumulated into a per-thread tree of (phase
// path -> call count, total wall time), merged across threads at render
// time. The phases are the span taxonomy (online.replan ->
// replan.alignment, astar.search -> ...), so a flamegraph of the
// profile and a Perfetto view of a trace describe the same shapes.
//
// Cost model, because this runs continuously in production servers:
//  * runtime-disabled (the default): one relaxed atomic load + branch per
//    span, inside the budget of the one CI observability-overhead gate;
//  * enabled: two steady_clock reads (shared with the trace span when both
//    are on) plus two relaxed atomic adds per phase; child lookup is a
//    pointer-compare scan over a handful of siblings. No allocation after
//    a phase path's first visit, no locks on the hot path (structural
//    inserts take the owning tree's mutex only so concurrent renders never
//    observe a half-built child list).
//
// Output is collapsed-stack text ("a;b;c <self_microseconds>" per line),
// the format flamegraph.pl and speedscope ingest directly, served by the
// /debug/profile HTTP endpoint and the --profile-out flags. Phase names
// must be string literals (the tree stores the pointer, like the tracer).
// -DCOSCHED_OBS_DISABLED compiles the span macro, and so every phase, out.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cosched {

class Profiler {
 public:
  Profiler();

  /// Process-wide profiler fed by every TraceSpan.
  static Profiler& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every node's count/time. The tree structure (and any phase a
  /// thread is currently inside) stays — resetting mid-flight is safe.
  void reset();

  /// One merged node of the cross-thread wall-time tree.
  struct NodeView {
    std::string path;  ///< ';'-joined phase names, root first
    std::string name;  ///< leaf phase name
    int depth = 0;     ///< 0 = top-level phase
    std::uint64_t count = 0;     ///< times the phase was entered
    std::uint64_t total_ns = 0;  ///< wall time inside, children included
    std::uint64_t self_ns = 0;   ///< total minus direct children's totals
  };

  /// Merged tree in deterministic order: depth-first, siblings sorted by
  /// name, threads folded together by path.
  std::vector<NodeView> snapshot() const;

  /// Collapsed-stack text: one "path self_microseconds" line per visited
  /// node, in snapshot() order — feed straight into flamegraph.pl.
  std::string render_collapsed() const;

  /// Human-oriented indented tree with counts and milliseconds.
  std::string render_text() const;

  /// Writes render_collapsed() to `path`, creating missing parent
  /// directories. False (with a stderr warning) on I/O failure.
  bool write_collapsed(const std::string& path) const;

  // ---- hot-path entry points (TraceSpan is the intended caller) ----------
  /// Descends into (creating on first visit) the child `name` of the
  /// calling thread's current node.
  void enter(const char* name);
  /// Adds `elapsed_ns` to the current node and pops back to its parent.
  /// Every enter() must be balanced by exactly one leave().
  void leave(std::uint64_t elapsed_ns);

 private:
  struct Node {
    const char* name = "";  ///< static string; not owned
    Node* parent = nullptr;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::vector<std::unique_ptr<Node>> children;
  };

  struct ThreadTree {
    Node root;
    Node* current = &root;    ///< touched only by the owning thread
    mutable std::mutex mutex;  ///< guards child insertion against renders
  };

  ThreadTree& local_tree();
  static void reset_node(Node& node);

  std::atomic<bool> enabled_{false};
  std::uint64_t id_ = 0;  ///< unique per Profiler: thread-local cache key
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadTree>> trees_;
};

}  // namespace cosched
