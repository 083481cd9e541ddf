// Structured, trace-correlated logging for the co-scheduling stack.
//
// The third observability pillar next to the Tracer (spans) and the
// MetricsRegistry (counters/histograms): discrete, leveled records that
// say *why* something happened — which policy admitted a batch, where a
// job was placed and next to whom, why a submit spilled off its ring
// shard. Records are structured (a message plus typed key=value fields),
// stamped with the calling thread's current trace id (Tracer::
// current_context()), and rendered either as logfmt-ish text or as one
// JSON object per line (`--log-json`).
//
// Hot-path discipline mirrors trace.hpp:
//   * level filtering is one relaxed atomic load; records below the
//     threshold are neither counted nor rendered;
//   * an accepted record costs one relaxed counter bump, plus one render
//     and file append when a sink is open;
//   * compile-time kill switch: -DCOSCHED_OBS_DISABLED turns the
//     COSCHED_LOG macro into a no-op with zero residue in that TU (the
//     same define compiles out spans and the alert engine).
//
// Sink: set_sink_path() appends every accepted record to a file as it is
// recorded — the production tail -f surface (`--log-out`). Without a sink
// records are only counted.
//
// Accounting for /metrics: records_total(level) feeds
// cosched_log_records_total{level}.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace cosched {

enum class LogLevel : std::uint8_t { Debug = 0, Info, Warn, Error, Off };

const char* to_string(LogLevel level);
/// Parses "debug"/"info"/"warn"/"error"/"off" (case-sensitive). False on
/// anything else, leaving `out` untouched.
bool parse_log_level(const std::string& text, LogLevel& out);

/// One structured field. Values are pre-rendered strings; `quoted` says
/// whether JSON output must quote them (false for numbers/booleans the
/// caller already formatted as valid JSON literals).
struct LogField {
  std::string key;
  std::string value;
  bool quoted = true;
};

/// Convenience field constructors: log_kv("job", 17) renders unquoted.
LogField log_kv(std::string key, std::string value);
LogField log_kv(std::string key, const char* value);
LogField log_kv(std::string key, std::int64_t value);
LogField log_kv(std::string key, std::uint64_t value);
LogField log_kv(std::string key, std::int32_t value);
LogField log_kv(std::string key, double value);
LogField log_kv(std::string key, bool value);

struct LogRecord {
  LogLevel level = LogLevel::Info;
  const char* component = "";  ///< static string; not owned
  std::string message;
  double wall_us = 0.0;        ///< microseconds since the logger epoch
  std::uint64_t trace_id = 0;  ///< current trace context at record time
  std::vector<LogField> fields;
};

class Logger {
 public:
  Logger();
  ~Logger();

  /// Process-wide logger used by the COSCHED_LOG macro.
  static Logger& global();

  void set_level(LogLevel level) {
    level_.store(static_cast<std::uint8_t>(level), std::memory_order_release);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  /// True iff a record at `level` would pass the threshold filter.
  bool enabled(LogLevel level) const {
    return static_cast<std::uint8_t>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// One JSON object per line instead of logfmt text (sink rendering and
  /// render()).
  void set_json(bool json) { json_.store(json, std::memory_order_relaxed); }
  bool json() const { return json_.load(std::memory_order_relaxed); }

  /// Appends accepted records to `path` as they are recorded (creating
  /// missing parent directories). Empty path closes the sink. False (with
  /// a stderr warning) when the file cannot be opened.
  bool set_sink_path(const std::string& path);

  /// Records one structured record. No-op below the level threshold.
  void log(LogLevel level, const char* component, std::string message,
           std::vector<LogField> fields = {});

  /// Accepted records at `level` since construction/reset().
  std::uint64_t records_total(LogLevel level) const;

  /// Renders one record the way the sink would (logfmt or JSON, per
  /// set_json()); newline-free.
  std::string render(const LogRecord& record) const;

  /// Zeroes the counters and restarts the epoch.
  void reset();

 private:
  void sink_write(const LogRecord& record);

  std::atomic<std::uint8_t> level_{
      static_cast<std::uint8_t>(LogLevel::Info)};
  std::atomic<bool> json_{false};
  std::atomic<std::uint64_t> records_by_level_[4] = {};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex sink_mutex_;
  std::FILE* sink_ = nullptr;
};

/// Prometheus exposition lines of the global logger's accounting
/// (cosched_log_records_total{level="..."}), appended to /metrics by the
/// RPC server and the shard router. Labeled
/// families cannot ride the MetricsRegistry callback path, so they are
/// hand-rendered like the router's own metrics.
std::string render_log_metrics();

}  // namespace cosched

// ---- macro ----------------------------------------------------------------
// COSCHED_LOG(level, component, message, {fields...}) — records iff the
// level passes the runtime threshold; vanishes entirely in TUs compiled
// with -DCOSCHED_OBS_DISABLED.
#ifdef COSCHED_OBS_DISABLED

#define COSCHED_LOG(level, component, message, ...) \
  do {                                              \
  } while (0)

#else

#define COSCHED_LOG(level, component, message, ...)                     \
  do {                                                                  \
    if (::cosched::Logger::global().enabled(level))                     \
      ::cosched::Logger::global().log(level, component, message         \
                                      __VA_OPT__(, ) __VA_ARGS__);      \
  } while (0)

#endif  // COSCHED_OBS_DISABLED
