#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "util/json.hpp"

namespace cosched {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Thread-local current trace context. One slot per thread (not per
/// tracer): contexts are installed around well-scoped request handling, so
/// nesting different tracers' contexts on one thread does not arise.
TraceContext& current_context_slot() {
  thread_local TraceContext context;
  return context;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->next = 0;
    buffer->dropped = 0;
    buffer->depth = 0;
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_snapshot()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

const TraceContext& Tracer::current_context() {
  return current_context_slot();
}

void Tracer::set_current_context(const TraceContext& context) {
  current_context_slot() = context;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // One buffer per (thread, tracer). The shared_ptr keeps the buffer alive
  // for exporters even after the thread exits; the id (not the address,
  // which a stack-allocated tracer in a test could reuse) keys the cache.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  thread_local std::uint64_t owner = 0;
  if (!buffer || owner != id_) {
    buffer = std::make_shared<ThreadBuffer>();
    owner = id_;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffer->tid = static_cast<std::int32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::record(ThreadBuffer& buffer, Event event,
                    std::chrono::steady_clock::time_point at) {
  std::chrono::duration<double, std::micro> since = at - epoch_;
  event.wall_us = since.count();
  event.trace_id = current_context_slot().trace_id;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  std::size_t capacity = max_events_per_thread_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() < capacity) {
    buffer.events.push_back(std::move(event));
    return;
  }
  // Ring full: overwrite the oldest slot. If the capacity was shrunk below
  // the current size, wrap within what is already stored.
  if (buffer.next >= buffer.events.size()) buffer.next = 0;
  buffer.events[buffer.next] = std::move(event);
  buffer.next = (buffer.next + 1) % buffer.events.size();
  ++buffer.dropped;
}

void Tracer::begin_span(const char* name, Real virtual_time,
                        std::string args,
                        std::chrono::steady_clock::time_point at) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  Event event;
  event.name = name;
  event.phase = Phase::Begin;
  event.virtual_time = virtual_time;
  ++buffer.depth;
  event.args = std::move(args);
  record(buffer, std::move(event), at);
}

void Tracer::end_span(std::chrono::steady_clock::time_point at) {
  // Intentionally no enabled() check: a span begun while enabled always
  // closes (TraceSpan latches the decision at construction).
  ThreadBuffer& buffer = local_buffer();
  COSCHED_EXPECTS(buffer.depth > 0);
  Event event;
  event.phase = Phase::End;
  --buffer.depth;
  record(buffer, std::move(event), at);
}

std::vector<std::shared_ptr<Tracer::ThreadBuffer>> Tracer::buffers_snapshot()
    const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return buffers_;
}

std::vector<Tracer::Event> Tracer::ordered_events(const ThreadBuffer& buffer) {
  std::vector<Event> events;
  events.reserve(buffer.events.size());
  if (buffer.dropped > 0 && buffer.next < buffer.events.size()) {
    events.insert(events.end(), buffer.events.begin() +
                                    static_cast<std::ptrdiff_t>(buffer.next),
                  buffer.events.end());
    events.insert(events.end(), buffer.events.begin(),
                  buffer.events.begin() +
                      static_cast<std::ptrdiff_t>(buffer.next));
  } else {
    events = buffer.events;
  }
  return events;
}

std::uint64_t Tracer::event_count() const {
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_snapshot()) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

std::string Tracer::export_chrome_json() const {
  struct Record {
    double ts = 0.0;
    std::int32_t tid = 0;
    std::uint64_t seq = 0;
    std::string json;
  };
  std::vector<Record> records;

  // Span occurrences per trace_id, for flow-event emission.
  struct FlowPoint {
    double ts = 0.0;
    std::int32_t tid = 0;
    std::uint64_t seq = 0;
    const char* name = "";
  };
  std::map<std::uint64_t, std::vector<FlowPoint>> flows;

  auto common_fields = [](std::string& json, const Event& e, char ph,
                          std::int32_t tid) {
    json += "{\"name\":\"";
    append_json_escaped(json, e.name);
    json += "\",\"cat\":\"cosched\",\"ph\":\"";
    json += ph;
    json += "\",\"ts\":" + fmt_double(e.wall_us);
    json += ",\"pid\":1,\"tid\":" + std::to_string(tid);
  };
  auto args_fields = [](std::string& json, const Event& e) {
    bool have_vt = e.virtual_time >= 0.0;
    bool have_trace = e.trace_id != 0;
    bool have_detail = !e.args.empty();
    if (!have_vt && !have_trace && !have_detail) return;
    json += ",\"args\":{";
    bool first = true;
    auto sep = [&] {
      if (!first) json += ",";
      first = false;
    };
    if (have_vt) {
      sep();
      json += "\"virtual_time\":" + fmt_double(e.virtual_time);
    }
    if (have_trace) {
      sep();
      json += "\"trace_id\":" + std::to_string(e.trace_id);
    }
    if (have_detail) {
      sep();
      json += "\"detail\":\"";
      append_json_escaped(json, e.args.c_str());
      json += "\"";
    }
    json += "}";
  };

  for (const auto& buffer : buffers_snapshot()) {
    std::vector<Event> events;
    {
      std::lock_guard<std::mutex> lock(buffer->mutex);
      events = ordered_events(*buffer);
    }
    // Pair Begin/End into "X" complete events; unclosed spans stay "B".
    // A ring overwrite can orphan an End whose Begin was evicted — such
    // Ends are skipped (no partner to time against).
    std::vector<std::size_t> open;
    std::vector<double> duration(events.size(), -1.0);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].phase == Phase::Begin) {
        open.push_back(i);
      } else if (events[i].phase == Phase::End) {
        if (open.empty()) continue;  // orphaned by the ring
        std::size_t b = open.back();
        open.pop_back();
        duration[b] = events[i].wall_us - events[b].wall_us;
      }
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.phase == Phase::End) continue;
      Record record;
      record.ts = e.wall_us;
      record.tid = buffer->tid;
      record.seq = e.seq;
      std::string& json = record.json;
      common_fields(json, e, duration[i] >= 0.0 ? 'X' : 'B', buffer->tid);
      if (duration[i] >= 0.0) json += ",\"dur\":" + fmt_double(duration[i]);
      args_fields(json, e);
      json += "}";
      if (e.trace_id != 0)
        flows[e.trace_id].push_back(
            FlowPoint{e.wall_us, buffer->tid, e.seq, e.name});
      records.push_back(std::move(record));
    }
  }

  // Flow events: for each trace with spans on more than one point, link
  // first -> ... -> last in seq order ("s" start, "t" steps, "f" finish).
  // Perfetto then draws arrows from the rpc.request span to the replan and
  // solver spans it caused, across threads.
  for (auto& [trace_id, points] : flows) {
    if (points.size() < 2) continue;
    std::sort(points.begin(), points.end(),
              [](const FlowPoint& a, const FlowPoint& b) {
                return a.seq < b.seq;
              });
    for (std::size_t i = 0; i < points.size(); ++i) {
      const FlowPoint& p = points[i];
      char ph = i == 0 ? 's' : (i + 1 == points.size() ? 'f' : 't');
      Record record;
      record.ts = p.ts;
      record.tid = p.tid;
      record.seq = p.seq;
      std::string& json = record.json;
      json += "{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"";
      json += ph;
      json += "\",\"id\":" + std::to_string(trace_id);
      json += ",\"ts\":" + fmt_double(p.ts);
      json += ",\"pid\":1,\"tid\":" + std::to_string(p.tid);
      if (ph == 'f') json += ",\"bp\":\"e\"";
      json += "}";
      records.push_back(std::move(record));
    }
  }

  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",\n";
    out += records[i].json;
  }
  out += "]\n";
  return out;
}

// ---- cross-process dump merging -------------------------------------------

namespace {

/// Splits an export_chrome_json() array into its records. Relies on the
/// exporter's exact shape: records joined with ",\n" inside "[...]\n" —
/// the only inputs these helpers are specified for.
std::vector<std::string> chrome_records(const std::string& json) {
  std::size_t open = json.find('[');
  std::size_t close = json.rfind(']');
  std::vector<std::string> records;
  if (open == std::string::npos || close == std::string::npos ||
      close <= open + 1)
    return records;
  std::string body = json.substr(open + 1, close - open - 1);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find(",\n", pos);
    if (end == std::string::npos) end = body.size();
    std::string record = body.substr(pos, end - pos);
    if (record.find('{') != std::string::npos)
      records.push_back(std::move(record));
    pos = end + 2;
  }
  return records;
}

}  // namespace

std::string namespace_chrome_trace(const std::string& json, int pid,
                                   const std::string& prefix) {
  const std::string pid_field = "\"pid\":1,";
  const std::string pid_rewrite = "\"pid\":" + std::to_string(pid) + ",";
  std::vector<std::string> records = chrome_records(json);
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string& record = records[i];
    std::size_t at = record.find(pid_field);
    if (at != std::string::npos)
      record.replace(at, pid_field.size(), pid_rewrite);
    // Flow events keep their name: Perfetto binds flows by (cat, name, id),
    // and the cross-process arrows are the whole point of the merge.
    if (record.rfind("{\"name\":\"", 0) == 0 &&
        record.find("\"cat\":\"flow\"") == std::string::npos)
      record.insert(std::strlen("{\"name\":\""), prefix);
    if (i > 0) out += ",\n";
    out += record;
  }
  out += "]\n";
  return out;
}

std::string merge_chrome_traces(const std::vector<std::string>& parts,
                                std::size_t max_bytes,
                                std::uint64_t& omitted) {
  // Each part's records are time-ordered, so its oldest is at `first`. The
  // array is "[" plus each record with its two-byte joint (",\n", or "]\n"
  // after the last).
  std::vector<std::vector<std::string>> records;
  std::vector<std::size_t> first(parts.size(), 0);
  std::vector<std::size_t> bytes(parts.size(), 0);
  std::size_t total = 1;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    records.push_back(chrome_records(parts[p]));
    for (const std::string& record : records[p]) bytes[p] += record.size() + 2;
    total += bytes[p];
  }
  omitted = 0;
  while (total > max_bytes) {
    std::size_t largest = static_cast<std::size_t>(
        std::max_element(bytes.begin(), bytes.end()) - bytes.begin());
    if (bytes[largest] == 0) break;
    std::size_t cost = records[largest][first[largest]++].size() + 2;
    bytes[largest] -= cost;
    total -= cost;
    ++omitted;
  }
  std::string out = "[";
  for (std::size_t p = 0; p < records.size(); ++p) {
    for (std::size_t r = first[p]; r < records[p].size(); ++r) {
      if (out.size() > 1) out += ",\n";
      out += records[p][r];
    }
  }
  out += "]\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  return write_export_file(path, export_chrome_json(), "trace");
}

}  // namespace cosched
