// AlertEngine: rule-file validation, the inactive → pending → firing →
// resolved state machine, the burn-rate arithmetic over the snapshot
// window, the render surfaces, and seeded mutations of the watchdog's
// outside inputs. Everything but the thread test runs on
// tick(exposition, now) with a synthetic clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "loadgen/slo.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics_registry.hpp"
#include "online/journal.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::for_each_mutation;

// ---- rule files ------------------------------------------------------------

TEST(AlertRules, ParsesBurnRateRules) {
  const std::string text = R"({
    "_note": "comments-by-convention are ignored",
    "rules": [
      {"name": "latency_burn", "kind": "burn_rate", "severity": "critical",
       "histogram": "cosched_lat_seconds", "budget_ms": 100,
       "objective": 0.9, "fast_window_seconds": 5, "slow_window_seconds": 30,
       "burn_factor": 4, "for_seconds": 2},
      {"name": "kindless", "histogram": "cosched_other_seconds",
       "slow_window_seconds": 3600}
    ]
  })";
  AlertRuleSet rules;
  std::string error;
  ASSERT_TRUE(parse_alert_rules(text, rules, error)) << error;
  ASSERT_EQ(rules.rules.size(), 2u);
  const AlertRule& burn = rules.rules[0];
  EXPECT_EQ(burn.name, "latency_burn");
  EXPECT_EQ(burn.severity, AlertSeverity::Critical);
  EXPECT_EQ(burn.histogram, "cosched_lat_seconds");
  EXPECT_DOUBLE_EQ(burn.budget_ms, 100.0);
  EXPECT_DOUBLE_EQ(burn.objective, 0.9);
  EXPECT_DOUBLE_EQ(burn.fast_window_seconds, 5.0);
  EXPECT_DOUBLE_EQ(burn.slow_window_seconds, 30.0);
  EXPECT_DOUBLE_EQ(burn.burn_factor, 4.0);
  EXPECT_DOUBLE_EQ(burn.for_seconds, 2.0);
  // `kind` is optional; the defaults fill the rest.
  const AlertRule& kindless = rules.rules[1];
  EXPECT_EQ(kindless.severity, AlertSeverity::Warn);
  EXPECT_DOUBLE_EQ(kindless.budget_ms, 900.0);
  EXPECT_DOUBLE_EQ(kindless.slow_window_seconds, 3600.0);
}

TEST(AlertRules, FieldErrorsNameTheField) {
  AlertRuleSet rules;
  std::string error;

  EXPECT_FALSE(parse_alert_rules(R"({"wat": 1})", rules, error));
  EXPECT_NE(error.find("unknown top-level key 'wat'"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h", "budget_sm": 2}]})",
      rules, error));
  EXPECT_NE(error.find("unknown rule field 'budget_sm'"), std::string::npos);

  // The threshold kind's fields are gone with it.
  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h", "metric": "m"}]})", rules,
      error));
  EXPECT_NE(error.find("unknown rule field 'metric'"), std::string::npos);

  EXPECT_FALSE(
      parse_alert_rules(R"({"rules": [{"histogram": "h"}]})", rules, error));
  EXPECT_NE(error.find("rules.0.name"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "kind": "sideways"}]})", rules, error));
  EXPECT_NE(error.find("rules.0.kind"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "severity": "mild", "histogram": "h"}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.severity"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(R"({"rules": [{"name": "a"}]})", rules,
                                 error));
  EXPECT_NE(error.find("rules.0.histogram"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h", "objective": 1.5}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.objective"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h",
                     "fast_window_seconds": 60,
                     "slow_window_seconds": 10}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.slow_window_seconds"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [
        {"name": "a", "histogram": "h"},
        {"name": "a", "histogram": "h"}]})",
      rules, error));
  EXPECT_NE(error.find("duplicate rule name 'a'"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(R"({"_note": "nothing"})", rules, error));
  EXPECT_NE(error.find("no rules found"), std::string::npos);
}

// A rule file written for the removed threshold kind is refused by kind,
// before its threshold-only fields reach the unknown-field check.
TEST(AlertRules, RejectsTheRemovedThresholdKind) {
  AlertRuleSet rules;
  std::string error;
  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "deep_queue", "kind": "threshold",
                     "metric": "cosched_depth", "agg": "avg", "op": ">",
                     "threshold": 32}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.kind: 'threshold' (want burn_rate)"),
            std::string::npos)
      << error;

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h"},
                    {"name": "b", "histogram": "h", "kind": 1}]})",
      rules, error));
  EXPECT_NE(error.find("rules.1.kind"), std::string::npos) << error;
}

// The slow window bounds how much history a watched histogram keeps.
TEST(AlertRules, SlowWindowAboveAnHourIsRejected) {
  AlertRuleSet rules;
  std::string error;
  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h",
                     "slow_window_seconds": 3601}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.slow_window_seconds: must be <= 3600"),
            std::string::npos)
      << error;
  EXPECT_TRUE(parse_alert_rules(
      R"({"rules": [{"name": "a", "histogram": "h",
                     "slow_window_seconds": 3600}]})",
      rules, error))
      << error;
}

TEST(AlertRules, DefaultsGuardTheRpcLatencyHistogram) {
  AlertRuleSet rules =
      default_alert_rules(250.0, "cosched_rpc_request_seconds");
  ASSERT_EQ(rules.rules.size(), 2u);
  for (const AlertRule& rule : rules.rules) {
    EXPECT_EQ(rule.histogram, "cosched_rpc_request_seconds");
    EXPECT_DOUBLE_EQ(rule.budget_ms, 250.0);
    EXPECT_LE(rule.fast_window_seconds, rule.slow_window_seconds);
    EXPECT_LE(rule.slow_window_seconds, kMaxAlertWindowSeconds);
  }
  EXPECT_NE(rules.rules[0].name, rules.rules[1].name);
}

TEST(AlertRules, DefaultsTakeTheirHistogram) {
  AlertRuleSet rules =
      default_alert_rules(0.0, "cosched_router_request_seconds");
  ASSERT_EQ(rules.rules.size(), 2u);
  for (const AlertRule& rule : rules.rules) {
    EXPECT_EQ(rule.histogram, "cosched_router_request_seconds");
    EXPECT_DOUBLE_EQ(rule.budget_ms, 900.0);  // non-positive budget: default
  }
}

// ---- state machine ---------------------------------------------------------

/// Cumulative buckets of cosched_lat_seconds: `good` samples at or under
/// 0.1 s out of `all`.
std::string latency_scrape(double good, double all) {
  std::string text;
  text += "cosched_lat_seconds_bucket{le=\"0.1\"} " +
          format_prometheus_value(good) + "\n";
  text += "cosched_lat_seconds_bucket{le=\"+Inf\"} " +
          format_prometheus_value(all) + "\n";
  return text;
}

/// One burn rule whose windows cover the last tick (fast) and the last two
/// (slow) of a 1 Hz clock. Every sample of latency_scrape(0, n) is bad, so
/// the rule is in condition exactly when the count moved since the last
/// tick.
AlertEngineOptions burn_options() {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "latency_burn";
  rule.severity = AlertSeverity::Critical;
  rule.histogram = "cosched_lat_seconds";
  rule.budget_ms = 100.0;  // good = at or under 0.1 s
  rule.objective = 0.9;    // error budget 0.1
  rule.fast_window_seconds = 1.0;
  rule.slow_window_seconds = 2.0;
  rule.burn_factor = 2.0;
  rule.for_seconds = 2.0;
  rule.clear_seconds = 2.0;
  rule.resolved_hold_seconds = 5.0;
  options.rules.rules.push_back(rule);
  return options;
}

std::string bad(double count) { return latency_scrape(0.0, count); }

TEST(AlertEngine, FullBurnRateLifecycle) {
  AlertEngine engine(burn_options());
  DecisionJournal journal;
  engine.set_journal(&journal);

  auto state = [&] { return engine.views().at(0).state; };

  ASSERT_TRUE(engine.tick(bad(0.0), 0.0));
  EXPECT_EQ(state(), AlertState::Inactive);

  ASSERT_TRUE(engine.tick(bad(10.0), 1.0));
  EXPECT_EQ(state(), AlertState::Pending);
  ASSERT_TRUE(engine.tick(bad(20.0), 2.0));
  EXPECT_EQ(state(), AlertState::Pending);  // held 1 s of the 2 s for-window

  ASSERT_TRUE(engine.tick(bad(30.0), 3.0));
  EXPECT_EQ(state(), AlertState::Firing);
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_EQ(engine.fired_total(), 1u);
  ASSERT_EQ(engine.firing_rules().size(), 1u);
  EXPECT_EQ(engine.firing_rules()[0], "latency_burn");
  EXPECT_DOUBLE_EQ(engine.views().at(0).value, 10.0);  // 1.0 bad / 0.1
  EXPECT_DOUBLE_EQ(engine.views().at(0).threshold, 2.0);

  // A quiet tick must stay clear for clear_seconds before resolving.
  ASSERT_TRUE(engine.tick(bad(30.0), 4.0));
  EXPECT_EQ(state(), AlertState::Firing);
  ASSERT_TRUE(engine.tick(bad(40.0), 5.0));  // re-breach cancels the clear
  EXPECT_EQ(state(), AlertState::Firing);
  ASSERT_TRUE(engine.tick(bad(40.0), 6.0));
  ASSERT_TRUE(engine.tick(bad(40.0), 7.0));
  EXPECT_EQ(state(), AlertState::Firing);  // clear held only 1 s
  ASSERT_TRUE(engine.tick(bad(40.0), 8.0));
  EXPECT_EQ(state(), AlertState::Resolved);
  EXPECT_EQ(engine.firing_count(), 0u);

  // Resolved rests resolved_hold_seconds, then returns to inactive.
  ASSERT_TRUE(engine.tick(bad(40.0), 12.0));
  EXPECT_EQ(state(), AlertState::Resolved);
  ASSERT_TRUE(engine.tick(bad(40.0), 13.0));
  EXPECT_EQ(state(), AlertState::Inactive);

  // Every transition was journalled as a fleet-level Alert event:
  // pending, firing, resolved, inactive.
  EXPECT_EQ(journal.events_total(JournalEventKind::Alert), 4u);
  std::vector<JournalEvent> events = journal.tail(16);
  ASSERT_EQ(events.size(), 4u);
  for (const JournalEvent& event : events) {
    EXPECT_EQ(event.kind, JournalEventKind::Alert);
    EXPECT_EQ(event.job_id, -1);
    EXPECT_EQ(event.policy, "latency_burn");
    EXPECT_NE(event.trace_id, 0u);
  }
  EXPECT_NE(events[1].detail.find("state=firing"), std::string::npos);

  std::map<std::string, std::uint64_t> counts = engine.transition_counts();
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  EXPECT_EQ(total, 4u);
}

TEST(AlertEngine, PendingFallsBackWithoutFiring) {
  AlertEngine engine(burn_options());
  ASSERT_TRUE(engine.tick(bad(0.0), 0.0));
  ASSERT_TRUE(engine.tick(bad(10.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Pending);
  ASSERT_TRUE(engine.tick(bad(10.0), 2.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  EXPECT_EQ(engine.fired_total(), 0u);
}

TEST(AlertEngine, NoDataNeverFires) {
  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  // The histogram never appears...
  ASSERT_TRUE(engine.tick("cosched_other 1\n", 0.0));
  ASSERT_TRUE(engine.tick("cosched_other 1\n", 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  // ...or appears with every sample bad but its counts never move.
  ASSERT_TRUE(engine.tick(bad(50.0), 2.0));
  ASSERT_TRUE(engine.tick(bad(50.0), 3.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  EXPECT_DOUBLE_EQ(engine.views().at(0).value, 0.0);
  EXPECT_EQ(engine.fired_total(), 0u);
}

TEST(AlertEngine, ZeroForSecondsFiresImmediately) {
  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  ASSERT_TRUE(engine.tick(bad(0.0), 0.0));
  ASSERT_TRUE(engine.tick(bad(10.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  EXPECT_EQ(engine.fired_total(), 1u);
}

// ---- burn-rate rules -------------------------------------------------------

TEST(AlertEngine, BurnRateFiresOnBothWindowsAndResolvesWhenTrafficDrains) {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "latency_burn";
  rule.histogram = "cosched_lat_seconds";
  rule.budget_ms = 100.0;  // good = faster than 0.1 s
  rule.objective = 0.9;    // error budget 0.1
  rule.fast_window_seconds = 2.0;
  rule.slow_window_seconds = 4.0;
  rule.burn_factor = 2.0;
  rule.for_seconds = 0.0;
  rule.clear_seconds = 1.0;
  rule.resolved_hold_seconds = 2.0;
  options.rules.rules.push_back(rule);
  AlertEngine engine(options);

  // Every sample blows the budget: bad_fraction 1.0, burn 10 > factor 2.
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 0.0), 0.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  EXPECT_NE(engine.views().at(0).detail.find("fast_burn=10"),
            std::string::npos);

  // Traffic stops: zero windowed delta is "no evidence", which both keeps
  // the rule from firing on silence and lets a firing rule resolve. At
  // t=2 the fast window still reaches the t=0 baseline, so the burn only
  // clears at t=3 and the clear must then hold clear_seconds.
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 2.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 3.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 4.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Resolved);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 6.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

TEST(AlertEngine, BurnRateNeedsBothWindowsHot) {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "latency_burn";
  rule.histogram = "cosched_lat_seconds";
  rule.budget_ms = 100.0;
  rule.objective = 0.9;
  rule.fast_window_seconds = 2.0;
  rule.slow_window_seconds = 20.0;
  rule.burn_factor = 2.0;
  rule.for_seconds = 0.0;
  options.rules.rules.push_back(rule);
  AlertEngine engine(options);

  // A long healthy history, then a 1-second bad burst: the fast window
  // burns hot but the slow window stays diluted below the factor.
  double good = 0.0;
  for (int t = 0; t <= 18; ++t) {
    good += 100.0;
    ASSERT_TRUE(engine.tick(latency_scrape(good, good), t));
    ASSERT_EQ(engine.views().at(0).state, AlertState::Inactive);
  }
  ASSERT_TRUE(engine.tick(latency_scrape(good, good + 100.0), 19.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

/// Rules on cosched_lat_seconds at each budget (ms), with objective 0.5 so
/// a view's value (the fast-window burn) is twice the bad fraction.
AlertEngineOptions budget_probes(const std::vector<double>& budgets_ms) {
  AlertEngineOptions options;
  for (double budget : budgets_ms) {
    AlertRule rule;
    rule.name = "budget_" + format_prometheus_value(budget);
    rule.histogram = "cosched_lat_seconds";
    rule.budget_ms = budget;
    rule.objective = 0.5;
    rule.fast_window_seconds = 60.0;
    rule.slow_window_seconds = 60.0;
    options.rules.rules.push_back(rule);
  }
  return options;
}

std::string three_buckets(double le_small, double le_mid, double le_inf) {
  std::string text;
  text += "cosched_lat_seconds_bucket{le=\"0.1\"} " +
          format_prometheus_value(le_small) + "\n";
  text += "cosched_lat_seconds_bucket{le=\"0.5\"} " +
          format_prometheus_value(le_mid) + "\n";
  text += "cosched_lat_seconds_bucket{le=\"+Inf\"} " +
          format_prometheus_value(le_inf) + "\n";
  return text;
}

TEST(AlertEngine, BadFractionSplitsTheStraddlingBucket) {
  AlertEngine engine(budget_probes({100.0, 300.0, 600.0}));
  ASSERT_TRUE(engine.tick(three_buckets(0.0, 0.0, 0.0), 0.0));
  // 100 samples over the window: 50 below 0.1 s, 50 in (0.1, 0.5].
  ASSERT_TRUE(engine.tick(three_buckets(50.0, 100.0, 100.0), 10.0));
  std::vector<AlertView> views = engine.views();
  // Exactly at the first edge: everything in the wider bucket is bad.
  EXPECT_NEAR(views.at(0).value, 2 * 0.5, 1e-9);
  // Halfway through the (0.1, 0.5] bucket: half its mass interpolates away.
  EXPECT_NEAR(views.at(1).value, 2 * 0.25, 1e-9);
  // Beyond every finite edge: nothing is bad.
  EXPECT_NEAR(views.at(2).value, 0.0, 1e-9);
}

TEST(AlertEngine, OverflowMassCountsAsBad) {
  AlertEngine engine(budget_probes({100.0, 300.0}));
  // All mass lands above every finite edge.
  ASSERT_TRUE(engine.tick(three_buckets(0.0, 0.0, 0.0), 0.0));
  ASSERT_TRUE(engine.tick(three_buckets(0.0, 0.0, 10.0), 1.0));
  std::vector<AlertView> views = engine.views();
  EXPECT_NEAR(views.at(0).value, 2 * 1.0, 1e-9);
  EXPECT_NEAR(views.at(1).value, 2 * 1.0, 1e-9);
}

TEST(AlertEngine, CounterResetRestartsTheBaseline) {
  AlertEngine engine(budget_probes({100.0}));
  ASSERT_TRUE(engine.tick(latency_scrape(50.0, 100.0), 0.0));
  // The process restarted: both buckets fell. Each restarts at its new
  // value, so the window holds 10 good of 20, not a negative total.
  ASSERT_TRUE(engine.tick(latency_scrape(10.0, 20.0), 1.0));
  EXPECT_NEAR(engine.views().at(0).value, 2 * 0.5, 1e-9);
}

TEST(AlertEngine, NoWindowedSamplesIsOutOfCondition) {
  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  ASSERT_TRUE(engine.tick(bad(0.0), 0.0));
  ASSERT_TRUE(engine.tick(bad(10.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  // Ten seconds later only the newest snapshot is inside either window:
  // one snapshot has no delta, and no samples is not a burn.
  ASSERT_TRUE(engine.tick(bad(10.0), 11.0));
  EXPECT_DOUBLE_EQ(engine.views().at(0).value, 0.0);
  EXPECT_NE(engine.views().at(0).detail.find("fast_burn=0 slow_burn=0"),
            std::string::npos);
}

TEST(AlertEngine, MalformedExpositionStoresNoSnapshot) {
  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  EXPECT_FALSE(engine.tick(
      "cosched_lat_seconds_bucket{le=\"+Inf\"} not_a_number\n", 0.0));
  EXPECT_FALSE(engine.tick(bad(10.0) + "cosched_lat_seconds_bucket{le\n", 0.0));
  EXPECT_EQ(engine.snapshot_count(), 0u);
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  EXPECT_TRUE(engine.tick(bad(10.0), 1.0));
  EXPECT_EQ(engine.snapshot_count(), 1u);
}

// Only the histograms the rules name are stored, and each keeps the
// longest window of its rules.
TEST(AlertEngine, SnapshotWindowKeepsOnlyWatchedHistograms) {
  AlertEngineOptions options = burn_options();  // slow window 2 s
  AlertRule other = options.rules.rules[0];
  other.name = "other_burn";
  other.histogram = "cosched_other_seconds";
  other.slow_window_seconds = 5.0;
  options.rules.rules.push_back(other);
  AlertEngine engine(options);

  std::string unwatched =
      "cosched_depth 3\n"
      "cosched_unwatched_seconds_bucket{le=\"+Inf\"} 4\n"
      "cosched_lat_seconds_count 7\n";
  ASSERT_TRUE(engine.tick(unwatched, 0.0));
  EXPECT_EQ(engine.snapshot_count(), 0u);

  std::string other_bucket = "cosched_other_seconds_bucket{le=\"+Inf\"} 1\n";
  for (int t = 1; t <= 20; ++t)
    ASSERT_TRUE(engine.tick(unwatched + bad(t) + other_bucket, t));
  // t in [18, 20] for the 2 s window, [15, 20] for the 5 s window.
  EXPECT_EQ(engine.snapshot_count(), 3u + 6u);
}

TEST(AlertEngine, ScrapeIntervalHasAFloor) {
  for (double interval : {0.0, -1.0, 0.05}) {
    AlertEngineOptions options;
    options.scrape_interval_seconds = interval;
    AlertEngine engine(options);
    EXPECT_DOUBLE_EQ(engine.options().scrape_interval_seconds,
                     kMinScrapeIntervalSeconds);
  }
  AlertEngineOptions options;
  options.scrape_interval_seconds = 2.5;
  AlertEngine engine(options);
  EXPECT_DOUBLE_EQ(engine.options().scrape_interval_seconds, 2.5);
}

// The watchdog thread sleeps until its next tick; stop() wakes it.
TEST(AlertEngine, StopWakesASleepingWatchdog) {
  AlertEngineOptions options = burn_options();
  options.scrape_interval_seconds = 3600.0;
  auto scrapes = std::make_shared<std::atomic<int>>(0);
  options.exposition_source = [scrapes] {
    ++*scrapes;
    return bad(0.0);
  };
  AlertEngine engine(options);
  ASSERT_TRUE(engine.start());
  for (int i = 0; i < 10000 && scrapes->load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(scrapes->load(), 1);

  auto begin = std::chrono::steady_clock::now();
  engine.stop();
  double stop_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  EXPECT_LT(stop_seconds, 1.0);
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(scrapes->load(), 1);
  EXPECT_EQ(engine.snapshot_count(), 1u);
}

TEST(AlertEngine, TickRegistryReadsItsRender) {
  MetricsRegistry registry;
  HistogramMetric& latency =
      registry.histogram("cosched_lat_seconds", "test latency", {0.1, 0.5});
  AlertEngine engine(budget_probes({100.0}));
  ASSERT_TRUE(engine.tick_registry(registry, 0.0));
  latency.observe(0.05);
  latency.observe(0.3);
  latency.observe(2.0);
  ASSERT_TRUE(engine.tick_registry(registry, 1.0));
  EXPECT_EQ(engine.snapshot_count(), 2u);
  EXPECT_NEAR(engine.views().at(0).value, 2 * (2.0 / 3.0), 1e-9);
}

// ---- render surfaces -------------------------------------------------------

TEST(AlertRender, TextAndJson) {
  std::vector<AlertView> views;
  AlertView firing;
  firing.rule = "latency_burn";
  firing.state = AlertState::Firing;
  firing.severity = AlertSeverity::Critical;
  firing.value = 12.0;
  firing.threshold = 5.0;
  firing.since_seconds = 3.0;
  firing.detail = "fast_burn=12";
  views.push_back(firing);
  AlertView shard;
  shard.shard_id = 2;
  shard.rule = "shard_burn";
  shard.state = AlertState::Inactive;
  views.push_back(shard);

  std::string text = render_alerts_text(views, true);
  EXPECT_NE(text.find("alerts: 2 rules, 1 firing"), std::string::npos);
  EXPECT_NE(text.find("rule=latency_burn state=firing severity=critical"),
            std::string::npos);
  EXPECT_NE(text.find("rule=shard_burn shard=2 state=inactive"),
            std::string::npos);
  EXPECT_EQ(render_alerts_text({}, false), "alerts disabled\n");

  std::string json = render_alerts_json(views, true);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"firing\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"latency_burn\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
}

// /alerts writes rule names and details as JSON strings: control bytes
// become \u00XX escapes (\r by name), never a bare byte or a blank.
TEST(AlertRender, JsonEscapesControlCharacters) {
  AlertView view;
  view.rule = "burn\x01\r\x1f";
  view.detail = "say \"hi\"\\";
  std::string json = render_alerts_json({view}, true);
  EXPECT_NE(json.find("\"rule\":\"burn\\u0001\\r\\u001f\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"detail\":\"say \\\"hi\\\"\\\\\""),
            std::string::npos)
      << json;
}

TEST(AlertRender, EngineMetricsFamilies) {
  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  ASSERT_TRUE(engine.tick(bad(0.0), 0.0));
  ASSERT_TRUE(engine.tick(bad(10.0), 1.0));
  std::string text = render_alert_metrics(engine);
  EXPECT_NE(text.find("cosched_alerts_firing 1"), std::string::npos);
  EXPECT_NE(text.find("cosched_alert_transitions_total{rule=\"latency_burn\","
                      "state=\"firing\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("cosched_tsdb"), std::string::npos);
  std::vector<PrometheusSample> samples;
  EXPECT_TRUE(parse_prometheus_text(text, samples));
}

TEST(AlertState, EnumRoundTrips) {
  for (std::uint8_t raw = 0; raw < kAlertStates; ++raw) {
    AlertState state;
    ASSERT_TRUE(alert_state_from(raw, state));
    EXPECT_EQ(static_cast<std::uint8_t>(state), raw);
  }
  AlertState state;
  EXPECT_FALSE(alert_state_from(kAlertStates, state));
  AlertSeverity severity;
  EXPECT_TRUE(parse_alert_severity("critical", severity));
  EXPECT_FALSE(parse_alert_severity("spicy", severity));
}

// ---- seeded mutations of the watchdog's inputs ------------------------------
//
// Every prefix of an input, then 500 seeded variants with 1-4 byte flips or
// insertions each. A parser must answer every case with a valid result or
// with false and a non-empty error, and never terminate. Each input is
// checked to reach both answers.

/// The rule file examples/remote_shard_smoke.sh arms the router with.
const std::string kSmokeRules = R"({"rules": [{
  "name": "smoke_latency_burn",
  "kind": "burn_rate",
  "severity": "critical",
  "histogram": "cosched_router_request_seconds",
  "budget_ms": 0.0001,
  "objective": 0.9,
  "fast_window_seconds": 3,
  "slow_window_seconds": 6,
  "burn_factor": 2,
  "for_seconds": 1,
  "clear_seconds": 2,
  "resolved_hold_seconds": 60
}]}
)";

const std::string kTwoRules = R"({"_note": "two rules",
  "rules": [
    {"name": "fast", "histogram": "cosched_rpc_request_seconds",
     "budget_ms": 900, "fast_window_seconds": 15, "slow_window_seconds": 60,
     "burn_factor": 8, "severity": "critical"},
    {"name": "slow", "kind": "burn_rate",
     "histogram": "cosched_rpc_request_seconds", "objective": 0.99,
     "fast_window_seconds": 60, "slow_window_seconds": 300}
  ]})";

/// A copy of slo.json at the repository root.
const std::string kSloJson = R"({
  "_note": "Absolute SLO budgets for the committed loopback configuration (closed loop, 2 streams, 40 jobs each, virtual-time 8x4 fleet). Derived from BENCH_rpc_loopback.json with ~40% headroom for CI jitter; benchmark_app --slo slo.json exits 2 when any budget is violated.",
  "p50_ms": 100,
  "p95_ms": 900,
  "p99_ms": 1100,
  "min_rps": 8,
  "max_error_rate": 0
}
)";

bool check_rule_text(const std::string& text) {
  AlertRuleSet rules;
  std::string error;
  if (parse_alert_rules(text, rules, error)) {
    EXPECT_FALSE(rules.rules.empty()) << text;
    for (const AlertRule& rule : rules.rules) {
      EXPECT_FALSE(rule.name.empty()) << text;
      EXPECT_FALSE(rule.histogram.empty()) << text;
      EXPECT_GT(rule.fast_window_seconds, 0.0) << text;
      EXPECT_LE(rule.fast_window_seconds, rule.slow_window_seconds) << text;
      EXPECT_LE(rule.slow_window_seconds, kMaxAlertWindowSeconds) << text;
    }
    return true;
  }
  EXPECT_FALSE(error.empty()) << text;
  return false;
}

TEST(AlertInputMutation, SmokeRuleFile) {
  for_each_mutation(kSmokeRules, 0x5eed01, check_rule_text);
}

TEST(AlertInputMutation, TwoRuleFile) {
  for_each_mutation(kTwoRules, 0x5eed02, check_rule_text);
}

TEST(AlertInputMutation, SloBudget) {
  for_each_mutation(kSloJson, 0x5eed03, [](const std::string& text) {
    SloBudget budget;
    std::string error;
    if (parse_slo_budget(text, budget, error)) return true;
    EXPECT_FALSE(error.empty()) << text;
    return false;
  });
}

// A tick on a mutated exposition either stores at most one snapshot and
// evaluates, or answers false and stores nothing; the window stays bounded.
TEST(AlertInputMutation, HistogramExposition) {
  MetricsRegistry registry;
  HistogramMetric& latency =
      registry.histogram("cosched_lat_seconds", "test latency", {0.1, 0.5});
  for (double x : {0.05, 0.2, 0.2, 0.9}) latency.observe(x);
  registry.counter("cosched_requests_total", "test requests").inc(4);
  const std::string exposition = registry.render_prometheus();

  AlertEngineOptions options = burn_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  double now = 0.0;
  for_each_mutation(exposition, 0x5eed04, [&](const std::string& text) {
    std::size_t before = engine.snapshot_count();
    now += 1.0;
    bool ticked = engine.tick(text, now);
    if (ticked) {
      EXPECT_LE(engine.snapshot_count(), 3u) << text;  // 2 s window at 1 Hz
    } else {
      EXPECT_EQ(engine.snapshot_count(), before) << text;
    }
    EXPECT_LT(static_cast<std::size_t>(engine.views().at(0).state),
              kAlertStates);
    return ticked;
  });
}

}  // namespace
}  // namespace cosched
