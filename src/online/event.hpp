// Event primitives of the online co-scheduling service: a virtual clock and
// a deterministic priority event queue. (What the service decided is
// recorded by the DecisionJournal, online/journal.hpp.)
//
// Determinism is the design constraint: two runs over the same trace must
// process the same events in the same order and leave byte-identical
// journals. Ties in virtual time are therefore broken by a push-order
// sequence number, never by container iteration order or wall-clock time.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/common.hpp"

namespace cosched {

enum class EventKind : std::uint8_t {
  JobArrival,         ///< a trace job enters the pending queue
  ReplanTick,         ///< periodic-policy timer fired
  AdmissionDeadline,  ///< max-wait backstop for a pending job fired
};

/// A scheduled occurrence in virtual time. `sequence` is assigned by the
/// queue at push time and breaks time ties, making the processing order a
/// pure function of push order.
struct Event {
  Real time = 0.0;
  EventKind kind = EventKind::JobArrival;
  std::int64_t payload = -1;  ///< job id / tick index, kind-dependent
  std::uint64_t sequence = 0;
};

/// Monotonic virtual time owned by the service.
class VirtualClock {
 public:
  Real now() const { return now_; }
  void advance_to(Real t) {
    COSCHED_EXPECTS(t >= now_);
    now_ = t;
  }

 private:
  Real now_ = 0.0;
};

/// Min-queue over (time, sequence).
class EventQueue {
 public:
  void push(Real time, EventKind kind, std::int64_t payload = -1) {
    heap_.push(Event{time, kind, payload, next_sequence_++});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const {
    COSCHED_EXPECTS(!heap_.empty());
    return heap_.top();
  }
  Event pop() {
    Event e = top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace cosched
