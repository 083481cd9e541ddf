#include "obs/alerts.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "loadgen/flat_json.hpp"
#include "obs/log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "online/journal.hpp"

namespace cosched {
namespace {

double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 — a deterministic per-tick trace id so a transition's log
/// line, journal event and trace all carry the same correlator.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string fmt(double v) { return format_prometheus_value(v); }

void append_json_escaped(std::ostream& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out << ' ';
        else
          out << c;
    }
  }
}

}  // namespace

const char* to_string(AlertState state) {
  switch (state) {
    case AlertState::Inactive:
      return "inactive";
    case AlertState::Pending:
      return "pending";
    case AlertState::Firing:
      return "firing";
    case AlertState::Resolved:
      return "resolved";
  }
  return "unknown";
}

bool alert_state_from(std::uint8_t raw, AlertState& out) {
  if (raw >= kAlertStates) return false;
  out = static_cast<AlertState>(raw);
  return true;
}

const char* to_string(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::Info:
      return "info";
    case AlertSeverity::Warn:
      return "warn";
    case AlertSeverity::Critical:
      return "critical";
  }
  return "unknown";
}

bool parse_alert_severity(const std::string& text, AlertSeverity& out) {
  if (text == "info") out = AlertSeverity::Info;
  else if (text == "warn") out = AlertSeverity::Warn;
  else if (text == "critical") out = AlertSeverity::Critical;
  else return false;
  return true;
}

const char* to_string(AlertAgg agg) {
  switch (agg) {
    case AlertAgg::Latest:
      return "latest";
    case AlertAgg::Avg:
      return "avg";
    case AlertAgg::Min:
      return "min";
    case AlertAgg::Max:
      return "max";
    case AlertAgg::Rate:
      return "rate";
    case AlertAgg::P50:
      return "p50";
    case AlertAgg::P95:
      return "p95";
    case AlertAgg::P99:
      return "p99";
  }
  return "unknown";
}

bool parse_alert_agg(const std::string& text, AlertAgg& out) {
  if (text == "latest") out = AlertAgg::Latest;
  else if (text == "avg") out = AlertAgg::Avg;
  else if (text == "min") out = AlertAgg::Min;
  else if (text == "max") out = AlertAgg::Max;
  else if (text == "rate") out = AlertAgg::Rate;
  else if (text == "p50") out = AlertAgg::P50;
  else if (text == "p95") out = AlertAgg::P95;
  else if (text == "p99") out = AlertAgg::P99;
  else return false;
  return true;
}

// ---- rule files ------------------------------------------------------------

namespace {

const std::set<std::string>& known_rule_fields() {
  static const std::set<std::string> fields = {
      "name",          "kind",         "severity",
      "metric",        "agg",          "window_seconds",
      "op",            "threshold",    "histogram",
      "budget_ms",     "objective",    "fast_window_seconds",
      "slow_window_seconds", "burn_factor", "for_seconds",
      "clear_seconds", "resolved_hold_seconds"};
  return fields;
}

bool rule_field_error(std::size_t index, const std::string& field,
                      const std::string& why, std::string& error) {
  error = "rules." + std::to_string(index) + "." + field + ": " + why;
  return false;
}

}  // namespace

bool parse_alert_rules(const std::string& text, AlertRuleSet& out,
                       std::string& error) {
  FlatJson json;
  if (!parse_flat_json(text, json, error)) return false;
  out.rules.clear();

  // Reject unknown top-level keys and unknown per-rule fields up front, so
  // a typo ("theshold") is a load error, not a silently inert rule.
  auto check_key = [&](const std::string& key) {
    if (!key.empty() && key[0] == '_') return true;  // _note convention
    if (key.compare(0, 6, "rules.") != 0) {
      error = "unknown top-level key '" + key + "' (want rules[])";
      return false;
    }
    std::size_t dot = key.find('.', 6);
    if (dot == std::string::npos) {
      error = "'" + key + "': rules[] entries must be objects";
      return false;
    }
    std::string field = key.substr(dot + 1);
    if (!field.empty() && field[0] == '_') return true;
    if (known_rule_fields().count(field) == 0) {
      error = "'" + key + "': unknown rule field '" + field + "'";
      return false;
    }
    return true;
  };
  for (const auto& [key, value] : json.numbers)
    if (!check_key(key)) return false;
  for (const auto& [key, value] : json.strings)
    if (!check_key(key)) return false;

  for (std::size_t i = 0;; ++i) {
    std::string prefix = "rules." + std::to_string(i) + ".";
    bool present = false;
    for (const auto& [key, value] : json.strings)
      if (key.compare(0, prefix.size(), prefix) == 0) present = true;
    for (const auto& [key, value] : json.numbers)
      if (key.compare(0, prefix.size(), prefix) == 0) present = true;
    if (!present) break;

    AlertRule rule;
    rule.name = json.string(prefix + "name", "");
    if (rule.name.empty())
      return rule_field_error(i, "name", "required and must be a non-empty string",
                              error);

    std::string kind = json.string(prefix + "kind", "threshold");
    if (kind == "threshold") {
      rule.kind = AlertRule::Kind::Threshold;
    } else if (kind == "burn_rate") {
      rule.kind = AlertRule::Kind::BurnRate;
    } else {
      return rule_field_error(i, "kind",
                              "'" + kind + "' (want threshold|burn_rate)", error);
    }

    std::string severity = json.string(prefix + "severity", "warn");
    if (!parse_alert_severity(severity, rule.severity))
      return rule_field_error(
          i, "severity", "'" + severity + "' (want info|warn|critical)", error);

    if (rule.kind == AlertRule::Kind::Threshold) {
      rule.metric = json.string(prefix + "metric", "");
      if (rule.metric.empty())
        return rule_field_error(i, "metric",
                                "required for threshold rules", error);
      std::string agg = json.string(prefix + "agg", "avg");
      if (!parse_alert_agg(agg, rule.agg))
        return rule_field_error(
            i, "agg", "'" + agg + "' (want latest|avg|min|max|rate|p50|p95|p99)",
            error);
      rule.window_seconds = json.number(prefix + "window_seconds", 60.0);
      if (!(rule.window_seconds > 0.0))
        return rule_field_error(i, "window_seconds", "must be > 0", error);
      std::string op = json.string(prefix + "op", ">");
      if (op == ">") rule.above = true;
      else if (op == "<") rule.above = false;
      else
        return rule_field_error(i, "op", "'" + op + "' (want > or <)", error);
      if (!json.has_number(prefix + "threshold"))
        return rule_field_error(i, "threshold",
                                "required for threshold rules", error);
      rule.threshold = json.number(prefix + "threshold", 0.0);
      if (!std::isfinite(rule.threshold))
        return rule_field_error(i, "threshold", "must be finite", error);
    } else {
      rule.histogram = json.string(prefix + "histogram", "");
      if (rule.histogram.empty())
        return rule_field_error(i, "histogram",
                                "required for burn_rate rules", error);
      rule.budget_ms = json.number(prefix + "budget_ms", 900.0);
      if (!(rule.budget_ms > 0.0))
        return rule_field_error(i, "budget_ms", "must be > 0", error);
      rule.objective = json.number(prefix + "objective", 0.95);
      if (!(rule.objective > 0.0) || !(rule.objective < 1.0))
        return rule_field_error(i, "objective",
                                "must be inside (0, 1)", error);
      rule.fast_window_seconds =
          json.number(prefix + "fast_window_seconds", 10.0);
      rule.slow_window_seconds =
          json.number(prefix + "slow_window_seconds", 60.0);
      if (!(rule.fast_window_seconds > 0.0))
        return rule_field_error(i, "fast_window_seconds", "must be > 0", error);
      if (!(rule.slow_window_seconds >= rule.fast_window_seconds))
        return rule_field_error(i, "slow_window_seconds",
                                "must be >= fast_window_seconds", error);
      rule.burn_factor = json.number(prefix + "burn_factor", 6.0);
      if (!(rule.burn_factor > 0.0))
        return rule_field_error(i, "burn_factor", "must be > 0", error);
    }

    rule.for_seconds = json.number(prefix + "for_seconds", 5.0);
    rule.clear_seconds = json.number(prefix + "clear_seconds", 5.0);
    rule.resolved_hold_seconds =
        json.number(prefix + "resolved_hold_seconds", 15.0);
    if (rule.for_seconds < 0.0)
      return rule_field_error(i, "for_seconds", "must be >= 0", error);
    if (rule.clear_seconds < 0.0)
      return rule_field_error(i, "clear_seconds", "must be >= 0", error);
    if (rule.resolved_hold_seconds < 0.0)
      return rule_field_error(i, "resolved_hold_seconds", "must be >= 0",
                              error);

    for (const AlertRule& existing : out.rules)
      if (existing.name == rule.name)
        return rule_field_error(i, "name",
                                "duplicate rule name '" + rule.name + "'",
                                error);
    out.rules.push_back(std::move(rule));
  }
  if (out.rules.empty()) {
    error = "rules: no rules found (want rules[] with at least one entry)";
    return false;
  }
  return true;
}

bool load_alert_rules(const std::string& path, AlertRuleSet& out,
                      std::string& error) {
  std::string text;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      error = path + ": cannot open";
      return false;
    }
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0)
      text.append(buffer, n);
    std::fclose(f);
  }
  if (!parse_alert_rules(text, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

AlertRuleSet default_alert_rules(double p95_budget_ms) {
  if (!(p95_budget_ms > 0.0)) p95_budget_ms = 900.0;
  AlertRuleSet set;

  AlertRule fast;
  fast.name = "rpc_latency_burn_fast";
  fast.kind = AlertRule::Kind::BurnRate;
  fast.severity = AlertSeverity::Critical;
  fast.histogram = "cosched_rpc_request_seconds";
  fast.budget_ms = p95_budget_ms;
  fast.objective = 0.95;
  fast.fast_window_seconds = 15.0;
  fast.slow_window_seconds = 60.0;
  fast.burn_factor = 8.0;
  fast.for_seconds = 5.0;
  fast.clear_seconds = 10.0;
  fast.resolved_hold_seconds = 30.0;
  set.rules.push_back(fast);

  AlertRule slow;
  slow.name = "rpc_latency_burn_slow";
  slow.kind = AlertRule::Kind::BurnRate;
  slow.severity = AlertSeverity::Warn;
  slow.histogram = "cosched_rpc_request_seconds";
  slow.budget_ms = p95_budget_ms;
  slow.objective = 0.95;
  slow.fast_window_seconds = 60.0;
  slow.slow_window_seconds = 300.0;
  slow.burn_factor = 2.0;
  slow.for_seconds = 15.0;
  slow.clear_seconds = 30.0;
  slow.resolved_hold_seconds = 60.0;
  set.rules.push_back(slow);

  return set;
}

// ---- rendering -------------------------------------------------------------

std::string render_alerts_text(const std::vector<AlertView>& views,
                               bool enabled) {
  std::ostringstream out;
  if (!enabled) {
    out << "alerts disabled\n";
    return out.str();
  }
  std::size_t firing = 0;
  for (const AlertView& view : views)
    if (view.state == AlertState::Firing) ++firing;
  out << "alerts: " << views.size() << " rules, " << firing << " firing\n";
  for (const AlertView& view : views) {
    out << "rule=" << view.rule;
    if (view.shard_id >= 0) out << " shard=" << view.shard_id;
    out << " state=" << to_string(view.state)
        << " severity=" << to_string(view.severity) << " value="
        << fmt(view.value) << " threshold=" << fmt(view.threshold)
        << " since=" << fmt(view.since_seconds) << "s";
    if (!view.detail.empty()) out << " " << view.detail;
    out << "\n";
  }
  return out.str();
}

std::string render_alerts_json(const std::vector<AlertView>& views,
                               bool enabled) {
  std::ostringstream out;
  std::size_t firing = 0;
  for (const AlertView& view : views)
    if (view.state == AlertState::Firing) ++firing;
  out << "{\"enabled\":" << (enabled ? "true" : "false")
      << ",\"firing\":" << firing << ",\"alerts\":[";
  for (std::size_t i = 0; i < views.size(); ++i) {
    const AlertView& view = views[i];
    if (i > 0) out << ",";
    out << "{\"rule\":\"";
    append_json_escaped(out, view.rule);
    out << "\",\"shard\":" << view.shard_id << ",\"state\":\""
        << to_string(view.state) << "\",\"severity\":\""
        << to_string(view.severity) << "\",\"value\":" << fmt(view.value)
        << ",\"threshold\":" << fmt(view.threshold)
        << ",\"since_seconds\":" << fmt(view.since_seconds) << ",\"detail\":\"";
    append_json_escaped(out, view.detail);
    out << "\"}";
  }
  out << "]}";
  return out.str();
}

// ---- engine ----------------------------------------------------------------

AlertEngine::AlertEngine(AlertEngineOptions options)
    : options_(std::move(options)), tsdb_(options_.tsdb) {
  if (options_.scrape_interval_seconds <= 0.0)
    options_.scrape_interval_seconds = 1.0;
  states_.reserve(options_.rules.rules.size());
  for (const AlertRule& rule : options_.rules.rules) {
    RuleState rs;
    rs.rule = rule;
    states_.push_back(std::move(rs));
  }
}

AlertEngine::~AlertEngine() { stop(); }

void AlertEngine::set_journal(DecisionJournal* journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = journal;
}

bool AlertEngine::tick_registry(const MetricsRegistry& registry, double now) {
  if (kAlertsDisabled) return false;
  return tick(registry.render_prometheus(/*with_exemplars=*/false), now);
}

bool AlertEngine::tick_impl(const std::string& exposition, double now) {
  if (!tsdb_.scrape_text(exposition, now)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  last_tick_ = now;
  ++tick_count_;
  // One deterministic trace id per tick: every transition this evaluation
  // emits (log record, journal event) carries the same correlator.
  std::uint64_t trace_id = mix64(0xa1e7ULL ^ tick_count_);
  TraceContextScope scope(Tracer::global().make_context(trace_id));
  for (RuleState& rs : states_) evaluate_locked(rs, now, trace_id);
  return true;
}

bool AlertEngine::condition_locked(const RuleState& rs, double now,
                                   double& value, std::string& detail) const {
  const AlertRule& rule = rs.rule;
  detail.clear();
  if (rule.kind == AlertRule::Kind::BurnRate) {
    double budget_seconds = rule.budget_ms / 1000.0;
    double error_budget = std::max(1.0 - rule.objective, 1e-9);
    double bad_fast = 0.0, total_fast = 0.0;
    double bad_slow = 0.0, total_slow = 0.0;
    bool fast_ok = tsdb_.histogram_bad_fraction(
        rule.histogram, budget_seconds, rule.fast_window_seconds, now,
        bad_fast, total_fast);
    bool slow_ok = tsdb_.histogram_bad_fraction(
        rule.histogram, budget_seconds, rule.slow_window_seconds, now,
        bad_slow, total_slow);
    double fast_burn = fast_ok ? bad_fast / error_budget : 0.0;
    double slow_burn = slow_ok ? bad_slow / error_budget : 0.0;
    value = fast_burn;
    detail = "fast_burn=" + fmt(fast_burn) + " slow_burn=" + fmt(slow_burn) +
             " budget_ms=" + fmt(rule.budget_ms) +
             " objective=" + fmt(rule.objective);
    // No traffic in either window means nothing is burning — the rule can
    // only fire on evidence, and drained windows are how it resolves.
    if (!fast_ok || !slow_ok) return false;
    return fast_burn > rule.burn_factor && slow_burn > rule.burn_factor;
  }

  bool ok = false;
  switch (rule.agg) {
    case AlertAgg::Latest:
      ok = tsdb_.latest(rule.metric, value);
      break;
    case AlertAgg::Avg:
      ok = tsdb_.window_stat(rule.metric, rule.window_seconds, now,
                             MetricsTsdb::Stat::Avg, value);
      break;
    case AlertAgg::Min:
      ok = tsdb_.window_stat(rule.metric, rule.window_seconds, now,
                             MetricsTsdb::Stat::Min, value);
      break;
    case AlertAgg::Max:
      ok = tsdb_.window_stat(rule.metric, rule.window_seconds, now,
                             MetricsTsdb::Stat::Max, value);
      break;
    case AlertAgg::Rate:
      ok = tsdb_.counter_rate(rule.metric, rule.window_seconds, now, value);
      break;
    case AlertAgg::P50:
      ok = tsdb_.histogram_quantile(rule.metric, 0.50, rule.window_seconds,
                                    now, value);
      break;
    case AlertAgg::P95:
      ok = tsdb_.histogram_quantile(rule.metric, 0.95, rule.window_seconds,
                                    now, value);
      break;
    case AlertAgg::P99:
      ok = tsdb_.histogram_quantile(rule.metric, 0.99, rule.window_seconds,
                                    now, value);
      break;
  }
  detail = "agg=" + std::string(to_string(rule.agg)) +
           " window=" + fmt(rule.window_seconds) + "s";
  if (!ok) {
    value = 0.0;
    return false;  // no data — a rule never fires on silence
  }
  return rule.above ? value > rule.threshold : value < rule.threshold;
}

void AlertEngine::transition_locked(RuleState& rs, AlertState next, double now,
                                    std::uint64_t trace_id) {
  AlertState previous = rs.state;
  rs.state = next;
  rs.state_since = now;
  rs.clear_pending = false;
  std::string key = rs.rule.name;
  key.push_back('\x1f');
  key += to_string(next);
  ++transitions_[key];
  if (next == AlertState::Firing) ++fired_total_;

  double threshold = rs.rule.kind == AlertRule::Kind::BurnRate
                         ? rs.rule.burn_factor
                         : rs.rule.threshold;
  COSCHED_LOG(next == AlertState::Firing ? LogLevel::Warn : LogLevel::Info,
              "alerts", "alert transition",
              {log_kv("rule", rs.rule.name),
               log_kv("from", to_string(previous)),
               log_kv("to", to_string(next)), log_kv("value", rs.value),
               log_kv("threshold", threshold),
               log_kv("severity", to_string(rs.rule.severity))});
  if (journal_ != nullptr) {
    JournalEvent event;
    event.job_id = -1;  // fleet-level, like batch triggers
    event.kind = JournalEventKind::Alert;
    event.time = 0.0;
    event.trace_id = trace_id;
    event.policy = rs.rule.name;
    event.detail = std::string("state=") + to_string(next) +
                   " from=" + to_string(previous) + " value=" + fmt(rs.value) +
                   " threshold=" + fmt(threshold) +
                   " severity=" + to_string(rs.rule.severity);
    journal_->append(std::move(event));
  }
}

void AlertEngine::evaluate_locked(RuleState& rs, double now,
                                  std::uint64_t trace_id) {
  double value = 0.0;
  std::string detail;
  bool breach = condition_locked(rs, now, value, detail);
  rs.value = value;
  rs.has_value = true;
  rs.detail = std::move(detail);

  switch (rs.state) {
    case AlertState::Inactive:
      if (breach) {
        transition_locked(rs, AlertState::Pending, now, trace_id);
        if (rs.rule.for_seconds <= 0.0)
          transition_locked(rs, AlertState::Firing, now, trace_id);
      }
      break;
    case AlertState::Pending:
      if (!breach) {
        transition_locked(rs, AlertState::Inactive, now, trace_id);
      } else if (now - rs.state_since >= rs.rule.for_seconds) {
        transition_locked(rs, AlertState::Firing, now, trace_id);
      }
      break;
    case AlertState::Firing:
      if (breach) {
        rs.clear_pending = false;
      } else {
        if (!rs.clear_pending) {
          rs.clear_pending = true;
          rs.clear_since = now;
        }
        if (now - rs.clear_since >= rs.rule.clear_seconds)
          transition_locked(rs, AlertState::Resolved, now, trace_id);
      }
      break;
    case AlertState::Resolved:
      if (breach) {
        transition_locked(rs, AlertState::Pending, now, trace_id);
        if (rs.rule.for_seconds <= 0.0)
          transition_locked(rs, AlertState::Firing, now, trace_id);
      } else if (now - rs.state_since >= rs.rule.resolved_hold_seconds) {
        transition_locked(rs, AlertState::Inactive, now, trace_id);
      }
      break;
  }
}

std::vector<AlertView> AlertEngine::views() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertView> out;
  out.reserve(states_.size());
  for (const RuleState& rs : states_) {
    AlertView view;
    view.rule = rs.rule.name;
    view.state = rs.state;
    view.severity = rs.rule.severity;
    view.value = rs.value;
    view.threshold = rs.rule.kind == AlertRule::Kind::BurnRate
                         ? rs.rule.burn_factor
                         : rs.rule.threshold;
    view.since_seconds = std::max(0.0, last_tick_ - rs.state_since);
    view.detail = rs.detail;
    out.push_back(std::move(view));
  }
  return out;
}

std::size_t AlertEngine::firing_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t firing = 0;
  for (const RuleState& rs : states_)
    if (rs.state == AlertState::Firing) ++firing;
  return firing;
}

std::vector<std::string> AlertEngine::firing_rules() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> rules;
  for (const RuleState& rs : states_)
    if (rs.state == AlertState::Firing) rules.push_back(rs.rule.name);
  return rules;
}

std::uint64_t AlertEngine::fired_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_total_;
}

std::map<std::string, std::uint64_t> AlertEngine::transition_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

bool AlertEngine::start_impl() {
  if (thread_.joinable()) return true;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
  return true;
}

void AlertEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  if (thread_.joinable()) thread_.join();
}

void AlertEngine::thread_main() {
  double next_tick = steady_now_seconds();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mutex_);
      if (stop_requested_) return;
    }
    double now = steady_now_seconds();
    if (now >= next_tick) {
      if (options_.exposition_source)
        tick(options_.exposition_source(), now);
      else
        tick_registry(MetricsRegistry::global(), now);
      next_tick = now + options_.scrape_interval_seconds;
    }
    // Sleep in short slices so stop() is responsive at any interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::string render_alert_metrics(const AlertEngine& engine) {
  std::ostringstream out;
  out << "# HELP cosched_alerts_firing Rules currently in the firing state.\n"
      << "# TYPE cosched_alerts_firing gauge\n"
      << "cosched_alerts_firing " << engine.firing_count() << "\n";
  out << "# HELP cosched_alert_transitions_total Alert state transitions by "
         "rule and entered state.\n"
      << "# TYPE cosched_alert_transitions_total counter\n";
  for (const auto& [key, count] : engine.transition_counts()) {
    std::size_t sep = key.find('\x1f');
    std::string rule = key.substr(0, sep);
    std::string state = sep == std::string::npos ? "" : key.substr(sep + 1);
    out << "cosched_alert_transitions_total{rule=\"" << rule << "\",state=\""
        << state << "\"} " << count << "\n";
  }
  out << render_tsdb_metrics(engine.tsdb());
  return out.str();
}

}  // namespace cosched
