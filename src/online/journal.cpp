#include "online/journal.hpp"

#include <algorithm>

#include "util/table.hpp"

namespace cosched {

const char* to_string(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::Admission: return "admission";
    case JournalEventKind::BatchTrigger: return "batch_trigger";
    case JournalEventKind::Placement: return "placement";
    case JournalEventKind::Spillover: return "spillover";
    case JournalEventKind::Migration: return "migration";
    case JournalEventKind::Completion: return "completion";
  }
  return "?";
}

DecisionJournal::DecisionJournal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void DecisionJournal::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) evict_locked();
}

std::size_t DecisionJournal::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void DecisionJournal::evict_locked() {
  ring_.pop_front();
  ++dropped_;
}

void DecisionJournal::append(JournalEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.seq = next_seq_++;
  ++by_kind_[static_cast<std::size_t>(event.kind)];
  ring_.push_back(std::move(event));
  while (ring_.size() > capacity_) evict_locked();
}

JobTimeline DecisionJournal::query(std::int64_t job_id) const {
  JobTimeline out;
  out.job_id = job_id;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const JournalEvent& event : ring_) {
    if (event.job_id == job_id) out.events.push_back(event);
  }
  // With evictions on record, a timeline that no longer opens with the
  // job's admission may be missing its early decisions — including the
  // everything-evicted case of an empty list for a real job.
  out.truncated =
      dropped_ > 0 && (out.events.empty() ||
                       out.events.front().kind != JournalEventKind::Admission);
  return out;
}

std::vector<JournalEvent> DecisionJournal::tail(std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = std::min(max_events, ring_.size());
  return std::vector<JournalEvent>(ring_.end() - static_cast<std::ptrdiff_t>(n),
                                   ring_.end());
}

std::uint64_t DecisionJournal::events_total(JournalEventKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_kind_[static_cast<std::size_t>(kind)];
}

std::uint64_t DecisionJournal::dropped_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t DecisionJournal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void DecisionJournal::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  dropped_ = 0;
  for (auto& count : by_kind_) count = 0;
}

std::string render_journal_event(const JournalEvent& event) {
  std::string out = "t=" + TextTable::fmt(event.time);
  out += " kind=";
  out += to_string(event.kind);
  out += " job=" + std::to_string(event.job_id);
  out += " policy=" + (event.policy.empty() ? "-" : event.policy);
  out += " machine=" + std::to_string(event.machine);
  out += " candidates=" + std::to_string(event.candidates);
  out += " delta=" + TextTable::fmt(event.degradation_delta);
  out += " co_runners=[";
  for (std::size_t i = 0; i < event.co_runners.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(event.co_runners[i]);
  }
  out += "]";
  out += " trace=" + std::to_string(event.trace_id);
  if (!event.detail.empty()) out += " " + event.detail;
  return out;
}

std::string render_journal_metrics(const DecisionJournal& journal) {
  std::string out;
  out +=
      "# HELP cosched_journal_events_total decision-journal events "
      "recorded\n"
      "# TYPE cosched_journal_events_total counter\n";
  for (std::size_t k = 0; k < kJournalEventKinds; ++k) {
    JournalEventKind kind = static_cast<JournalEventKind>(k);
    out += "cosched_journal_events_total{kind=\"";
    out += to_string(kind);
    out += "\"} " + std::to_string(journal.events_total(kind)) + "\n";
  }
  out +=
      "# HELP cosched_journal_events_dropped_total journal events evicted "
      "oldest-first past the ring capacity\n"
      "# TYPE cosched_journal_events_dropped_total counter\n"
      "cosched_journal_events_dropped_total " +
      std::to_string(journal.dropped_total()) + "\n";
  return out;
}

}  // namespace cosched
