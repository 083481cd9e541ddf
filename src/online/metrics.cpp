#include "online/metrics.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace cosched {

std::vector<Real> queue_wait_metric_edges() {
  return {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
}

std::vector<Real> replan_duration_metric_edges() {
  return {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0};
}

SchedulerMetrics::SchedulerMetrics()
    : queue_wait_(queue_wait_metric_edges()),
      registry_queue_wait_(&MetricsRegistry::global().histogram(
          kQueueWaitMetricName, kQueueWaitMetricHelp,
          queue_wait_metric_edges())),
      registry_replan_duration_(&MetricsRegistry::global().histogram(
          kReplanDurationMetricName, kReplanDurationMetricHelp,
          replan_duration_metric_edges())),
      registry_swaps_priced_(&MetricsRegistry::global().counter(
          "cosched_repair_swaps_priced_total",
          "candidate swaps the replan repair priced")),
      registry_assignments_(&MetricsRegistry::global().counter(
          "cosched_repair_assignments_total",
          "relabeling assignments (Hungarian solves) the replan repair ran")),
      slowdown_({1.1, 1.25, 1.5, 2.0, 3.0, 5.0}),
      migrations_per_replan_({0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {}

void SchedulerMetrics::on_replan(ReplanRecord record) {
  ++replans_;
  migrations_ += static_cast<std::uint64_t>(record.migrations);
  migrations_per_replan_.add(static_cast<Real>(record.migrations));
  solve_wall_seconds_ += record.solve_wall_seconds;
  registry_replan_duration_->observe(
      static_cast<Real>(record.solve_wall_seconds), record.trace_id);
  registry_swaps_priced_->inc(record.swaps_priced);
  registry_assignments_->inc(record.assignments);
  replans_log_.push_back(std::move(record));
}

void SchedulerMetrics::on_advance(Real dt, std::int32_t live,
                                  Real total_degradation) {
  COSCHED_EXPECTS(dt >= 0.0);
  degradation_time_ += total_degradation * dt;
  live_time_ += static_cast<Real>(live) * dt;
}

TextTable SchedulerMetrics::summary_table() const {
  TextTable table({"metric", "value"});
  auto row = [&](const char* name, std::string value) {
    table.add_row({name, std::move(value)});
  };
  row("arrivals", TextTable::fmt_int(static_cast<std::int64_t>(arrivals_)));
  row("admissions",
      TextTable::fmt_int(static_cast<std::int64_t>(admissions_)));
  row("completions",
      TextTable::fmt_int(static_cast<std::int64_t>(completions_)));
  row("replans", TextTable::fmt_int(static_cast<std::int64_t>(replans_)));
  row("migrations",
      TextTable::fmt_int(static_cast<std::int64_t>(migrations_)));
  row("mean queue wait", TextTable::fmt(queue_wait_.mean()));
  row("max queue wait", TextTable::fmt(queue_wait_.max()));
  row("mean slowdown", TextTable::fmt(slowdown_.mean()));
  row("mean migrations/replan",
      TextTable::fmt(mean_migrations_per_replan()));
  row("running mean degradation",
      TextTable::fmt(running_mean_degradation()));
  return table;
}

TextTable SchedulerMetrics::histogram_table() const {
  TextTable table({"metric", "count", "mean", "max", "buckets"});
  auto row = [&](const char* name, const Histogram& h) {
    table.add_row({name,
                   TextTable::fmt_int(static_cast<std::int64_t>(h.count())),
                   TextTable::fmt(h.mean()), TextTable::fmt(h.max()),
                   h.summary()});
  };
  row("queue wait", queue_wait_);
  row("slowdown", slowdown_);
  row("migrations/replan", migrations_per_replan_);
  return table;
}

TextTable SchedulerMetrics::replans_table(bool include_wall_times) const {
  std::vector<std::string> headers{"time",          "admitted", "migrations",
                                   "stay combined", "combined", "degradation"};
  if (include_wall_times) headers.push_back("solve seconds");
  TextTable table(std::move(headers));
  for (const ReplanRecord& r : replans_log_) {
    std::vector<std::string> row{
        TextTable::fmt(r.time, 3), TextTable::fmt_int(r.admitted),
        TextTable::fmt_int(r.migrations), TextTable::fmt(r.stay_combined),
        TextTable::fmt(r.combined), TextTable::fmt(r.degradation)};
    if (include_wall_times)
      row.push_back(TextTable::fmt(r.solve_wall_seconds, 5));
    table.add_row(std::move(row));
  }
  return table;
}

std::string SchedulerMetrics::render_deterministic_csv() const {
  return summary_table().render_csv() + histogram_table().render_csv() +
         replans_table(false).render_csv();
}

std::vector<std::string> SchedulerMetrics::write_csvs(
    const std::string& dir, const std::string& prefix) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "warning: cannot create metrics directory " << dir << ": "
              << ec.message() << "\n";
    return {};
  }
  const std::pair<const char*, TextTable> tables[] = {
      {"summary", summary_table()},
      {"histograms", histogram_table()},
      {"replans", replans_table(false)},
  };
  std::vector<std::string> paths;
  for (const auto& [suffix, table] : tables) {
    std::string path = dir + "/" + prefix + "_" + suffix + ".csv";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return {};
    }
    out << table.render_csv();
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace cosched
