#include "obs/log.hpp"

#include <cstdio>
#include <filesystem>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace cosched {
namespace {

std::string format_real(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

bool parse_log_level(const std::string& text, LogLevel& out) {
  if (text == "debug") out = LogLevel::Debug;
  else if (text == "info") out = LogLevel::Info;
  else if (text == "warn") out = LogLevel::Warn;
  else if (text == "error") out = LogLevel::Error;
  else if (text == "off") out = LogLevel::Off;
  else return false;
  return true;
}

LogField log_kv(std::string key, std::string value) {
  return LogField{std::move(key), std::move(value), true};
}
LogField log_kv(std::string key, const char* value) {
  return LogField{std::move(key), std::string(value), true};
}
LogField log_kv(std::string key, std::int64_t value) {
  return LogField{std::move(key), std::to_string(value), false};
}
LogField log_kv(std::string key, std::uint64_t value) {
  return LogField{std::move(key), std::to_string(value), false};
}
LogField log_kv(std::string key, std::int32_t value) {
  return LogField{std::move(key), std::to_string(value), false};
}
LogField log_kv(std::string key, double value) {
  return LogField{std::move(key), format_real(value), false};
}
LogField log_kv(std::string key, bool value) {
  return LogField{std::move(key), value ? "true" : "false", false};
}

Logger::Logger() : epoch_(std::chrono::steady_clock::now()) {}

Logger::~Logger() {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_) std::fclose(sink_);
  sink_ = nullptr;
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

bool Logger::set_sink_path(const std::string& path) {
  std::FILE* next = nullptr;
  if (!path.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path target(path);
    if (target.has_parent_path())
      fs::create_directories(target.parent_path(), ec);
    next = std::fopen(path.c_str(), "a");
    if (!next) {
      std::fprintf(stderr, "cosched: cannot open log sink %s\n", path.c_str());
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_) std::fclose(sink_);
  sink_ = next;
  return true;
}

void Logger::log(LogLevel level, const char* component, std::string message,
                 std::vector<LogField> fields) {
  if (level == LogLevel::Off || !enabled(level)) return;
  LogRecord record;
  record.level = level;
  record.component = component;
  record.message = std::move(message);
  record.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - epoch_)
                       .count();
  record.trace_id = Tracer::current_context().trace_id;
  record.fields = std::move(fields);
  records_by_level_[static_cast<std::size_t>(level)].fetch_add(
      1, std::memory_order_relaxed);
  sink_write(record);
}

void Logger::sink_write(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (!sink_) return;
  std::string line = render(record);
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), sink_);
  if (record.level >= LogLevel::Warn) std::fflush(sink_);
}

std::string Logger::render(const LogRecord& record) const {
  std::string out;
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%.6f", record.wall_us / 1e6);
  if (json()) {
    out += "{\"ts\":";
    out += stamp;
    out += ",\"level\":\"";
    out += to_string(record.level);
    out += "\",\"component\":\"";
    append_json_escaped(out, record.component);
    out += "\",\"message\":\"";
    append_json_escaped(out, record.message);
    out += "\"";
    if (record.trace_id != 0)
      out += ",\"trace_id\":" + std::to_string(record.trace_id);
    for (const LogField& field : record.fields) {
      out += ",\"";
      append_json_escaped(out, field.key);
      out += "\":";
      if (field.quoted) {
        out += "\"";
        append_json_escaped(out, field.value);
        out += "\"";
      } else {
        out += field.value;
      }
    }
    out += "}";
  } else {
    out += stamp;
    out += " ";
    out += to_string(record.level);
    out += " ";
    out += record.component;
    out += " ";
    out += record.message;
    if (record.trace_id != 0)
      out += " trace=" + std::to_string(record.trace_id);
    for (const LogField& field : record.fields) {
      out += " ";
      out += field.key;
      out += "=";
      out += field.value;
    }
  }
  return out;
}

std::uint64_t Logger::records_total(LogLevel level) const {
  if (level >= LogLevel::Off) return 0;
  return records_by_level_[static_cast<std::size_t>(level)].load(
      std::memory_order_relaxed);
}

std::string render_log_metrics() {
  Logger& logger = Logger::global();
  std::string out;
  out +=
      "# HELP cosched_log_records_total structured log records accepted\n"
      "# TYPE cosched_log_records_total counter\n";
  for (LogLevel level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                         LogLevel::Error}) {
    out += "cosched_log_records_total{level=\"";
    out += to_string(level);
    out += "\"} " + std::to_string(logger.records_total(level)) + "\n";
  }
  return out;
}

void Logger::reset() {
  for (auto& counter : records_by_level_)
    counter.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

}  // namespace cosched
