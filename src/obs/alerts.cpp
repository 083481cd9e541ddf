#include "obs/alerts.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "loadgen/flat_json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "online/journal.hpp"
#include "util/json.hpp"

namespace cosched {
namespace {

/// SplitMix64 — a deterministic per-tick trace id so a transition's journal
/// event and trace carry the same correlator.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string fmt(double v) { return format_prometheus_value(v); }

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

// ---- rule files ------------------------------------------------------------

namespace {

const std::set<std::string>& known_rule_fields() {
  static const std::set<std::string> fields = {
      "name",          "kind",          "severity",
      "histogram",     "budget_ms",     "objective",
      "fast_window_seconds", "slow_window_seconds", "burn_factor",
      "for_seconds",   "clear_seconds", "resolved_hold_seconds"};
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

  // `kind` is optional; the one kind left is burn_rate. A removed kind
  // ("threshold") is named before its fields trip the unknown-field check.
  auto is_kind = [](const std::string& key) {
    std::size_t dot = key.find('.', 6);
    return key.compare(0, 6, "rules.") == 0 && dot != std::string::npos &&
           key.compare(dot, std::string::npos, ".kind") == 0;
  };
  for (const auto& [key, value] : json.strings)
    if (is_kind(key) && value != "burn_rate") {
      error = key + ": '" + value + "' (want burn_rate)";
      return false;
    }
  for (const auto& [key, value] : json.numbers)
    if (is_kind(key)) {
      error = key + ": must be the string \"burn_rate\"";
      return false;
    }

  // Reject unknown top-level keys and unknown per-rule fields up front, so
  // a typo ("budget_sm") is a load error, not a silently inert rule.
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

    std::string severity = json.string(prefix + "severity", "warn");
    if (!parse_alert_severity(severity, rule.severity))
      return rule_field_error(
          i, "severity", "'" + severity + "' (want info|warn|critical)", error);

    rule.histogram = json.string(prefix + "histogram", "");
    if (rule.histogram.empty())
      return rule_field_error(i, "histogram", "required", error);
    rule.budget_ms = json.number(prefix + "budget_ms", 900.0);
    if (!(rule.budget_ms > 0.0))
      return rule_field_error(i, "budget_ms", "must be > 0", error);
    rule.objective = json.number(prefix + "objective", 0.95);
    if (!(rule.objective > 0.0) || !(rule.objective < 1.0))
      return rule_field_error(i, "objective", "must be inside (0, 1)", error);
    rule.fast_window_seconds = json.number(prefix + "fast_window_seconds", 10.0);
    rule.slow_window_seconds = json.number(prefix + "slow_window_seconds", 60.0);
    if (!(rule.fast_window_seconds > 0.0))
      return rule_field_error(i, "fast_window_seconds", "must be > 0", error);
    if (!(rule.slow_window_seconds >= rule.fast_window_seconds))
      return rule_field_error(i, "slow_window_seconds",
                              "must be >= fast_window_seconds", error);
    if (!(rule.slow_window_seconds <= kMaxAlertWindowSeconds))
      return rule_field_error(i, "slow_window_seconds", "must be <= 3600",
                              error);
    rule.burn_factor = json.number(prefix + "burn_factor", 6.0);
    if (!(rule.burn_factor > 0.0))
      return rule_field_error(i, "burn_factor", "must be > 0", error);

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

AlertRuleSet default_alert_rules(double p95_budget_ms,
                                 const std::string& histogram) {
  if (!(p95_budget_ms > 0.0)) p95_budget_ms = 900.0;
  AlertRuleSet set;

  AlertRule fast;
  fast.name = "rpc_latency_burn_fast";
  fast.severity = AlertSeverity::Critical;
  fast.histogram = histogram;
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
  slow.severity = AlertSeverity::Warn;
  slow.histogram = histogram;
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
  auto escaped = [](const std::string& text) {
    std::string json;
    append_json_escaped(json, text);
    return json;
  };
  std::ostringstream out;
  std::size_t firing = 0;
  for (const AlertView& view : views)
    if (view.state == AlertState::Firing) ++firing;
  out << "{\"enabled\":" << (enabled ? "true" : "false")
      << ",\"firing\":" << firing << ",\"alerts\":[";
  for (std::size_t i = 0; i < views.size(); ++i) {
    const AlertView& view = views[i];
    if (i > 0) out << ",";
    out << "{\"rule\":\"" << escaped(view.rule)
        << "\",\"shard\":" << view.shard_id << ",\"state\":\""
        << to_string(view.state) << "\",\"severity\":\""
        << to_string(view.severity) << "\",\"value\":" << fmt(view.value)
        << ",\"threshold\":" << fmt(view.threshold)
        << ",\"since_seconds\":" << fmt(view.since_seconds)
        << ",\"detail\":\"" << escaped(view.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

// ---- engine ----------------------------------------------------------------

AlertEngine::AlertEngine(AlertEngineOptions options)
    : options_(std::move(options)) {
  if (!(options_.scrape_interval_seconds >= kMinScrapeIntervalSeconds))
    options_.scrape_interval_seconds = kMinScrapeIntervalSeconds;
  states_.reserve(options_.rules.rules.size());
  for (const AlertRule& rule : options_.rules.rules) {
    RuleState rs;
    rs.rule = rule;
    states_.push_back(std::move(rs));
    // A window keeps what its longest rule looks back over, capped at the
    // longest window a rule file may name.
    double& keep = windows_[rule.histogram].keep_seconds;
    keep = std::max({keep, rule.fast_window_seconds, rule.slow_window_seconds});
    keep = std::min(keep, kMaxAlertWindowSeconds);
  }
}

AlertEngine::~AlertEngine() { stop(); }

void AlertEngine::set_journal(DecisionJournal* journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = journal;
}

bool AlertEngine::tick_registry(const MetricsRegistry& registry, double now) {
  return tick(registry.render_prometheus(/*with_exemplars=*/false), now);
}

namespace {

/// The numeric `le` of a bucket sample's label block, e.g. `le="0.25"` ->
/// 0.25 and `le="+Inf"` -> +infinity.
bool parse_le(const std::string& labels, double& out) {
  std::size_t pos = labels.find("le=\"");
  while (pos != std::string::npos && pos > 0 && labels[pos - 1] != ',')
    pos = labels.find("le=\"", pos + 1);
  if (pos == std::string::npos) return false;
  pos += 4;
  std::size_t end = labels.find('"', pos);
  if (end == std::string::npos) return false;
  std::string text = labels.substr(pos, end - pos);
  if (text == "+Inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  char* parse_end = nullptr;
  out = std::strtod(text.c_str(), &parse_end);
  return parse_end != text.c_str() && !std::isnan(out);
}

/// The cumulative count of edge `le` in `buckets` (ascending le).
bool find_bucket(const std::vector<std::pair<double, double>>& buckets,
                 double le, double& out) {
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), le,
      [](const std::pair<double, double>& bucket, double key) {
        return bucket.first < key;
      });
  if (it == buckets.end() || it->first != le) return false;
  out = it->second;
  return true;
}

}  // namespace

bool AlertEngine::tick(const std::string& exposition, double now) {
  if (kAlertsDisabled) return false;
  std::vector<PrometheusSample> samples;
  if (!parse_prometheus_text(exposition, samples)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [histogram, window] : windows_) {
    const std::string bucket_name = histogram + "_bucket";
    Snapshot snapshot;
    snapshot.t = now;
    for (const PrometheusSample& sample : samples) {
      double le = 0.0;
      if (sample.name == bucket_name && std::isfinite(sample.value) &&
          parse_le(sample.labels, le))
        snapshot.buckets.emplace_back(le, sample.value);
    }
    std::sort(snapshot.buckets.begin(), snapshot.buckets.end());
    if (!snapshot.buckets.empty())
      window.snapshots.push_back(std::move(snapshot));
    while (!window.snapshots.empty() &&
           window.snapshots.front().t < now - window.keep_seconds)
      window.snapshots.pop_front();
  }
  last_tick_ = now;
  ++tick_count_;
  // One deterministic trace id per tick: every transition this evaluation
  // emits (journal event, trace context) carries the same correlator.
  std::uint64_t trace_id = mix64(0xa1e7ULL ^ tick_count_);
  TraceContextScope scope(TraceContext{trace_id});
  for (RuleState& rs : states_) evaluate_locked(rs, now, trace_id);
  return true;
}

// The windowed count of each bucket is the newest snapshot minus the
// oldest snapshot inside [now - window, now]; a bucket that decreased
// (process restart) restarts at its new value. The bad fraction is the
// windowed mass strictly above `threshold`, interpolating inside the
// straddling bucket; overflow mass (past every finite edge) is bad. False
// when the window holds no samples — "no traffic" is not "all good".
bool AlertEngine::bad_fraction_locked(const Window& window, double threshold,
                                      double window_seconds, double now,
                                      double& out) const {
  const std::deque<Snapshot>& snapshots = window.snapshots;
  auto first = std::find_if(
      snapshots.begin(), snapshots.end(),
      [&](const Snapshot& s) { return s.t >= now - window_seconds; });
  if (first == snapshots.end()) return false;
  std::vector<std::pair<double, double>> deltas;
  deltas.reserve(snapshots.back().buckets.size());
  for (const auto& [le, cum] : snapshots.back().buckets) {
    // Baseline: the oldest windowed snapshot that carries this edge.
    double base = cum;
    for (auto it = first; it != snapshots.end(); ++it)
      if (find_bucket(it->buckets, le, base)) break;
    double delta = cum - base;
    deltas.emplace_back(le, delta < 0.0 ? cum : delta);
  }
  double total = deltas.back().second;  // cumulative: the widest bucket
  if (!(total > 0.0)) return false;
  double prev_edge = 0.0;
  double prev_cum = 0.0;
  double cum_at_threshold = total;  // threshold beyond every finite edge
  for (const auto& [le, cum] : deltas) {
    if (!std::isfinite(le)) continue;
    if (le >= threshold) {
      double width = le - prev_edge;
      double fraction =
          width <= 0.0 ? 1.0
                       : std::clamp((threshold - prev_edge) / width, 0.0, 1.0);
      cum_at_threshold = prev_cum + fraction * (cum - prev_cum);
      break;
    }
    prev_edge = le;
    prev_cum = cum;
  }
  out = std::clamp((total - cum_at_threshold) / total, 0.0, 1.0);
  return true;
}

bool AlertEngine::condition_locked(const RuleState& rs, double now,
                                   double& value, std::string& detail) const {
  const AlertRule& rule = rs.rule;
  const Window& window = windows_.at(rule.histogram);
  double budget_seconds = rule.budget_ms / 1000.0;
  double error_budget = std::max(1.0 - rule.objective, 1e-9);
  double bad_fast = 0.0, bad_slow = 0.0;
  bool fast_ok = bad_fraction_locked(window, budget_seconds,
                                     rule.fast_window_seconds, now, bad_fast);
  bool slow_ok = bad_fraction_locked(window, budget_seconds,
                                     rule.slow_window_seconds, now, bad_slow);
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

  if (journal_ != nullptr) {
    JournalEvent event;
    event.job_id = -1;  // fleet-level, like batch triggers
    event.kind = JournalEventKind::Alert;
    event.time = 0.0;
    event.trace_id = trace_id;
    event.policy = rs.rule.name;
    event.detail = std::string("state=") + to_string(next) +
                   " from=" + to_string(previous) + " value=" + fmt(rs.value) +
                   " threshold=" + fmt(rs.rule.burn_factor) +
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
    view.threshold = rs.rule.burn_factor;
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

std::size_t AlertEngine::snapshot_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [histogram, window] : windows_)
    count += window.snapshots.size();
  return count;
}

bool AlertEngine::start() {
  if (kAlertsDisabled) return false;
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
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void AlertEngine::thread_main() {
  using Clock = std::chrono::steady_clock;
  // Capped so the deadline stays inside the clock's range at any interval.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          std::min(options_.scrape_interval_seconds, 1e9)));
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_requested_) {
    lock.unlock();
    Clock::time_point started = Clock::now();
    double now =
        std::chrono::duration<double>(started.time_since_epoch()).count();
    if (options_.exposition_source)
      tick(options_.exposition_source(), now);
    else
      tick_registry(MetricsRegistry::global(), now);
    lock.lock();
    stop_cv_.wait_until(lock, started + interval,
                        [this] { return stop_requested_; });
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
  return out.str();
}

}  // namespace cosched
