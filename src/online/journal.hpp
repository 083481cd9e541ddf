// Scheduler decision journal — per-decision attribution for the online
// scheduler.
//
// Metrics say how well the fleet is doing and traces say where the time
// went; the journal says *why the scheduler chose what it chose*: which
// trigger fired an admission batch, where each job was placed and next to
// whom, what degradation delta the solver attributed to the adopted
// placement versus staying put, which jobs a replan migrated, and which
// submits the router spilled off their ring shard. Every event carries
// the trace id that was current when the decision was made, so a journal
// line resolves into the corresponding replan span in a TraceDump.
//
// Storage is one bounded FIFO ring guarded by a mutex: append is O(1),
// eviction is strictly oldest-first, and evicted events are counted in
// dropped_total() (exported as cosched_journal_events_dropped_total).
// query(job) returns the job's events in decision order plus a
// `truncated` flag: true when the journal has evicted events and this
// job's retained timeline no longer starts at its admission — the
// well-formed "history rolled over" answer, never an error.
//
// The journal is deliberately dependency-light (no tracer, no registry):
// OnlineScheduler owns one per shard and ShardRouter owns one for
// routing decisions; the RPC layer converts events to wire form.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace cosched {

enum class JournalEventKind : std::uint8_t {
  Admission = 0,    ///< job admitted from the pending queue
  BatchTrigger,     ///< a replan fired (fleet-level, job_id == -1)
  Placement,        ///< admitted job placed; co-runners + predicted delta
  Spillover,        ///< router sent the job off its ring shard
  Migration,        ///< replan moved the job's running processes
  Completion,       ///< last process finished
};

inline constexpr std::size_t kJournalEventKinds = 6;

const char* to_string(JournalEventKind kind);

struct JournalEvent {
  std::int64_t job_id = -1;  ///< -1 = fleet-level event (batch trigger)
  JournalEventKind kind = JournalEventKind::BatchTrigger;
  Real time = 0.0;           ///< virtual seconds (0 for router events)
  std::uint64_t trace_id = 0;  ///< trace current at decision time
  std::uint64_t seq = 0;       ///< journal-assigned append order
  std::string policy;        ///< trigger reason / solver / routing policy
  std::int32_t machine = -1;   ///< chosen machine (shard for spillover)
  std::int32_t candidates = 0;  ///< candidate set size the decision saw
  Real degradation_delta = 0.0;  ///< predicted combined - stay-put
  std::vector<std::int64_t> co_runners;  ///< co-located job ids
  std::string detail;        ///< free-form "k=v ..." extras
};

struct JobTimeline {
  std::int64_t job_id = -1;
  bool truncated = false;  ///< evictions may have removed early events
  std::vector<JournalEvent> events;  ///< ascending seq
};

class DecisionJournal {
 public:
  explicit DecisionJournal(std::size_t capacity = 65536);

  /// Ring capacity; shrinking evicts oldest-first immediately.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Stamps `seq` and appends; evicts the oldest event (counted into
  /// dropped_total()) when full.
  void append(JournalEvent event);

  /// Events of one job, decision order. `truncated` is set when the
  /// journal has evicted events and the retained timeline does not start
  /// with the job's admission (so earlier decisions may be lost).
  JobTimeline query(std::int64_t job_id) const;

  /// The newest `max_events` events of every job (the /debug/events
  /// firehose view), ascending seq.
  std::vector<JournalEvent> tail(std::size_t max_events) const;

  std::uint64_t events_total(JournalEventKind kind) const;
  std::uint64_t dropped_total() const;
  std::size_t size() const;
  void clear();  ///< drops events and zeroes counters; seq keeps climbing

 private:
  void evict_locked();

  mutable std::mutex mutex_;
  std::deque<JournalEvent> ring_;  ///< oldest at front
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t by_kind_[kJournalEventKinds] = {};
};

/// One-line deterministic rendering ("t=.. kind=.. job=.. ..."), used by
/// /debug/events, the rpc_client --timeline printer and tests.
std::string render_journal_event(const JournalEvent& event);

/// Prometheus exposition lines of one journal's accounting
/// (cosched_journal_events_total{kind="..."} +
/// cosched_journal_events_dropped_total), appended to /metrics by the RPC
/// server and the shard router (labeled families cannot ride the
/// MetricsRegistry callback path).
std::string render_journal_metrics(const DecisionJournal& journal);

}  // namespace cosched
