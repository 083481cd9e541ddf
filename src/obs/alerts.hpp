// Declarative burn-rate alerting over the server's own latency
// histograms — the layer that turns the telemetry into a watchdog.
//
// An AlertEngine periodically parses the live Prometheus exposition and
// evaluates a rule set on every tick. A rule is the SRE multi-window
// error-budget rule: "bad" is a latency histogram sample above budget_ms;
// the burn rate is bad_fraction / (1 - objective), i.e. how many times
// faster than sustainable the SLO's error budget is being spent. The rule
// is in condition only when BOTH a fast window (reacts quickly, noisy
// alone) and a slow window (confirms it is not a blip) exceed burn_factor.
//
// History is a snapshot window per watched histogram: each tick keeps
// only the `<histogram>_bucket{le=...}` samples of the histograms the
// rules name and appends one (t, [(le, cumulative)]) snapshot; snapshots
// older than the longest window on that histogram are dropped. Every
// other series in the exposition is never stored.
//
// Each rule runs an inactive → pending → firing → resolved state machine:
// a breach holds for for_seconds before firing (hysteresis against
// flapping), a firing rule must stay clear for clear_seconds before
// resolving, and a resolved rule rests resolved_hold_seconds before
// returning to inactive. Every transition is journalled
// (JournalEventKind::Alert, job_id = -1, the rule name as the policy) under
// a per-tick trace id — so the journal event and a TraceDump correlate —
// and counted into cosched_alert_transitions_total{rule,state}; the
// instantaneous firing count is cosched_alerts_firing.
//
// Determinism: tick(now) takes an explicit clock and an injectable
// exposition, so tests drive the full lifecycle without sleeping. The
// background thread (start/stop) just calls tick on the wall clock.
//
// COSCHED_OBS_DISABLED (the one observability kill switch, shared with
// spans) compiles the watchdog out of a build: kAlertsDisabled flips,
// AlertEngine::start() refuses to spawn the scrape thread and tick()
// no-ops, so a build with the define pays only an untaken branch. Those
// branches live in alerts.cpp, so the engine follows how that file was
// built and no function has two different inline definitions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cosched {

class DecisionJournal;
class MetricsRegistry;

// Not `inline`: a namespace-scope constexpr has internal linkage, so TUs
// built with and without the define each hold their own constant.
#ifdef COSCHED_OBS_DISABLED
constexpr bool kAlertsDisabled = true;
#else
constexpr bool kAlertsDisabled = false;
#endif

enum class AlertState : std::uint8_t {
  Inactive = 0,  ///< condition false, at rest
  Pending,       ///< condition true, waiting out for_seconds
  Firing,        ///< condition held long enough — page someone
  Resolved,      ///< recently cleared, resting before inactive
};
inline constexpr std::size_t kAlertStates = 4;

const char* to_string(AlertState state);
bool alert_state_from(std::uint8_t raw, AlertState& out);

enum class AlertSeverity : std::uint8_t { Info = 0, Warn, Critical };

const char* to_string(AlertSeverity severity);
bool parse_alert_severity(const std::string& text, AlertSeverity& out);

/// The longest window a rule may name; with the scrape interval's floor
/// it bounds a snapshot window at 36,001 snapshots per watched histogram.
inline constexpr double kMaxAlertWindowSeconds = 3600.0;
/// The background tick's shortest interval.
inline constexpr double kMinScrapeIntervalSeconds = 0.1;

struct AlertRule {
  std::string name;
  AlertSeverity severity = AlertSeverity::Warn;

  std::string histogram;     ///< latency histogram base name
  double budget_ms = 900.0;  ///< good = sample latency <= budget
  double objective = 0.95;   ///< SLO: fraction of samples that must be good
  double fast_window_seconds = 10.0;
  double slow_window_seconds = 60.0;
  double burn_factor = 6.0;  ///< fire when both windows burn this fast

  // -- state machine -----------------------------------------------------
  double for_seconds = 5.0;            ///< pending must hold this long
  double clear_seconds = 5.0;          ///< firing must stay clear this long
  double resolved_hold_seconds = 15.0; ///< resolved rests before inactive
};

struct AlertRuleSet {
  std::vector<AlertRule> rules;
};

/// Loads a rule file (flat JSON: {"rules":[{...},...]}) with field-level
/// validation — unknown keys, bad enums, windows outside (0, 3600] and
/// missing names all come back as "rules.N.field: why" in `error`. `kind`
/// is optional and, when present, must be "burn_rate".
bool load_alert_rules(const std::string& path, AlertRuleSet& out,
                      std::string& error);
/// Same, from already-loaded text (tests).
bool parse_alert_rules(const std::string& text, AlertRuleSet& out,
                       std::string& error);

/// The watchdog rules every server gets when no --alert-rules file is
/// given: fast+slow burn-rate guards on `histogram` against
/// `p95_budget_ms` (slo.json's p95 budget, 900 ms by default).
AlertRuleSet default_alert_rules(double p95_budget_ms,
                                 const std::string& histogram);

/// Point-in-time view of one rule — what /alerts and GetAlerts serve.
struct AlertView {
  std::int32_t shard_id = -1;  ///< -1 = this process / the router itself
  std::string rule;
  AlertState state = AlertState::Inactive;
  AlertSeverity severity = AlertSeverity::Warn;
  double value = 0.0;      ///< last evaluated value (burn: fast-window burn)
  double threshold = 0.0;  ///< bound (burn: burn_factor)
  double since_seconds = 0.0;  ///< time spent in the current state
  std::string detail;          ///< "k=v ..." extras (burn windows, budget)
};

/// Deterministic text rendering, one `rule=... state=...` line per view.
std::string render_alerts_text(const std::vector<AlertView>& views,
                               bool enabled);
/// JSON rendering: {"enabled":...,"firing":N,"alerts":[{...}]}.
std::string render_alerts_json(const std::vector<AlertView>& views,
                               bool enabled);

struct AlertEngineOptions {
  AlertRuleSet rules;  ///< empty => caller decides (servers fall back to
                       ///< default_alert_rules)
  /// Background tick cadence, at least kMinScrapeIntervalSeconds.
  double scrape_interval_seconds = 1.0;
  /// What the background thread scrapes. Defaults to the process-global
  /// MetricsRegistry; a shard router points this at its fleet page so the
  /// rules see the *merged* latency histogram and the router counters.
  std::function<std::string()> exposition_source;
};

class AlertEngine {
 public:
  explicit AlertEngine(AlertEngineOptions options);
  ~AlertEngine();
  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Alert transitions append JournalEventKind::Alert events here (the
  /// scheduler's own journal, so `--timeline`/debug/events interleave
  /// alerts with the decisions that caused them). Optional; set before
  /// start().
  void set_journal(DecisionJournal* journal);

  /// One deterministic evaluation step: snapshot the watched histograms of
  /// `exposition` at `now`, then run every rule's state machine. Returns
  /// false (and stores nothing) when the exposition does not parse; no-op
  /// (returns false) in a COSCHED_OBS_DISABLED build.
  bool tick(const std::string& exposition, double now);
  /// tick() on a fresh render of `registry`.
  bool tick_registry(const MetricsRegistry& registry, double now);

  /// Spawns the background scrape-and-evaluate thread over the global
  /// registry at options().scrape_interval_seconds. Returns false (and
  /// stays stopped) in a COSCHED_OBS_DISABLED build.
  bool start();
  void stop();
  bool running() const { return thread_.joinable(); }

  /// Current state of every rule, evaluation order. since_seconds is
  /// relative to the newest tick.
  std::vector<AlertView> views() const;
  std::size_t firing_count() const;
  std::vector<std::string> firing_rules() const;
  /// Transitions into Firing over the engine's lifetime — benchmark_app's
  /// --fail-on-alert checks this after the measure phase.
  std::uint64_t fired_total() const;
  /// (rule, state) -> transition count, for the metrics family.
  std::map<std::string, std::uint64_t> transition_counts() const;

  /// Snapshots currently retained across the watched histograms.
  std::size_t snapshot_count() const;
  const AlertEngineOptions& options() const { return options_; }

 private:
  /// One tick's cumulative (le, count) pairs of a histogram, ascending le.
  struct Snapshot {
    double t = 0.0;
    std::vector<std::pair<double, double>> buckets;
  };
  struct Window {
    double keep_seconds = 0.0;  ///< longest window of a rule on it
    std::deque<Snapshot> snapshots;
  };

  struct RuleState {
    AlertRule rule;
    AlertState state = AlertState::Inactive;
    double state_since = 0.0;   ///< when the current state began
    double clear_since = 0.0;   ///< firing: when the condition last cleared
    bool clear_pending = false;
    double value = 0.0;
    bool has_value = false;
    std::string detail;
  };

  void evaluate_locked(RuleState& rs, double now, std::uint64_t trace_id);
  bool condition_locked(const RuleState& rs, double now, double& value,
                        std::string& detail) const;
  bool bad_fraction_locked(const Window& window, double threshold,
                           double window_seconds, double now,
                           double& out) const;
  void transition_locked(RuleState& rs, AlertState next, double now,
                         std::uint64_t trace_id);
  void thread_main();

  AlertEngineOptions options_;
  DecisionJournal* journal_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<RuleState> states_;
  std::map<std::string, Window> windows_;  ///< by histogram base name
  std::map<std::string, std::uint64_t> transitions_;  ///< "rule\x1fstate"
  std::uint64_t fired_total_ = 0;
  double last_tick_ = 0.0;
  std::uint64_t tick_count_ = 0;

  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;  ///< stop() wakes the sleeping thread
  bool stop_requested_ = false;
};

/// Prometheus exposition lines of one engine's families
/// (cosched_alerts_firing, cosched_alert_transitions_total{rule,state}) —
/// appended to /metrics next to the journal families (labels cannot
/// ride the registry path).
std::string render_alert_metrics(const AlertEngine& engine);

}  // namespace cosched
