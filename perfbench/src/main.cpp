// cosched_perfbench — the repository's benchmark.
//
//   cosched_perfbench --workload <online-churn|fleet-burst|offline-oastar>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// Prints one human-readable line per metric (name, value, unit, samples),
// the work fingerprint and any failed check, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
// when a correctness check failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/prctl.h>

#include "bench.hpp"

namespace {

using perfbench::Report;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  double raw;  ///< the same figure before pace normalisation
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Timed metrics are pace-normalised (see HostPace); the raw wall-time
/// figure is printed next to each.
std::vector<Metric> end_to_end(const Report& r) {
  const perfbench::Samples paced = r.latency_ms(true);
  const perfbench::Samples raw = r.latency_ms(false);
  const std::size_t n = paced.count();
  return {
      {"setup_s", median(r.setup_s(true)), "s", r.setups.size(),
       median(r.setup_s(false))},
      {"p50_ms", paced.quantile(0.5), "ms", n, raw.quantile(0.5)},
      {"p90_ms", paced.quantile(0.9), "ms", n, raw.quantile(0.9)},
      {"throughput", r.throughput(true), "1/s", n, r.throughput(false)},
      {"degradation", r.degradation, "ratio", r.quality_decisions,
       r.degradation},
      {"slowdown", r.slowdown, "ratio", r.quality_jobs, r.slowdown},
      {"migrations_per_replan", r.migrations_per_replan, "count",
       r.quality_replans, r.migrations_per_replan},
      {"peak_rss_mb", r.peak_rss_mb, "MiB", 1, r.peak_rss_mb},
  };
}

/// Every per-layer metric a traced run prints, in BENCHMARK.json's order.
/// A workload that does not exercise a layer reports it as 0 and names it
/// on a "not measured" line.
struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kPerLayer[] = {
    {"astar.searches", "count/op"},
    {"astar.busy_s", "s/op"},
    {"astar.precompute_s", "s/op"},
    {"astar.expanded", "count/op"},
    {"astar.generated", "count/op"},
    {"astar.heuristic_evals", "count/op"},
    {"astar.dismissed", "count/op"},
    {"astar.useful_ratio", "ratio"},
    {"graph.condensed_skips", "count/op"},
    {"core.oracle_hits", "count/op"},
    {"core.oracle_misses", "count/op"},
    {"core.hit_ratio", "ratio"},
    {"core.evictions", "count/op"},
    {"core.entries", "count"},
    {"vm.align_s", "s/op"},
    {"vm.migrations", "count/op"},
    {"online.replans", "count/op"},
    {"online.admitted_per_replan", "count"},
    {"online.replan_s", "s/op"},
    {"online.admission_s", "s/op"},
    {"online.build_s", "s/op"},
    {"online.commit_s", "s/op"},
    {"online.cmd_queue_depth", "count"},
    {"online.admission_wait_vs", "s"},
    {"online.service_ms", "ms"},
    {"online.run_s", "s"},
    {"rpc.requests", "count"},
    {"rpc.failed", "count"},
    {"rpc.retries", "count"},
    {"rpc.client_ms", "ms"},
    {"rpc.server_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.frame_bytes", "bytes"},
    {"shard.route_ms", "ms"},
    {"shard.spillovers", "count"},
    {"shard.imbalance", "ratio"},
    {"shard.control_ms", "ms"},
    {"shard.control_p90_ms", "ms"},
    {"obs.scrape_ms", "ms"},
    {"obs.log_records", "count/op"},
    {"obs.journal_events", "count/op"},
    {"obs.tracer_dropped", "count"},
    {"loadgen.late_sends", "count"},
    {"loadgen.max_late_ms", "ms"},
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  // Open-loop sends sleep until their due time; the default 50 us timer
  // slack would be charged to every sub-millisecond request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  perfbench::RunOptions options;
  std::string workload;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') workload.clear();
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) workload.clear();
    } else if (key == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else {
      workload.clear();
    }
  }
  if (argc % 2 == 0 || trace < 0 ||
      (workload != "online-churn" && workload != "fleet-burst" &&
       workload != "offline-oastar")) {
    std::cerr << "usage: cosched_perfbench --workload "
                 "<online-churn|fleet-burst|offline-oastar> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  options.trace = trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  Report report = workload == "online-churn"
                      ? perfbench::run_online_churn(options)
                  : workload == "fleet-burst"
                      ? perfbench::run_fleet_burst(options)
                      : perfbench::run_offline_oastar(options);

  std::cout << "workload " << report.workload << " seed " << options.seed
            << " rounds " << report.rounds << " trace " << trace << "\n";
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit, std::size_t samples,
                  const std::string& extra = "") {
    std::cout << "  " << name << " = " << json_number(value) << " " << unit
              << " (n=" << samples << extra << ")\n";
    metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (options.trace) {
    std::string not_measured;
    for (const LayerMetric& metric : kPerLayer) {
      auto it = report.layers.find(metric.name);
      if (it == report.layers.end()) {
        not_measured += std::string(" ") + metric.name;
        emit(metric.name, 0.0, metric.unit, 0);
        continue;
      }
      if (it->second.second != metric.unit)
        report.fail(std::string("per-layer metric ") + metric.name +
                    " reported in " + it->second.second);
      emit(metric.name, it->second.first, metric.unit, report.rounds);
      report.layers.erase(it);
    }
    for (const auto& [name, reading] : report.layers)
      report.fail("per-layer metric " + name + " is not in the metric list");
    if (!not_measured.empty())
      std::cout << "not measured on " << report.workload << ":" << not_measured
                << "\n";
  } else {
    for (const Metric& m : end_to_end(report))
      emit(m.name, m.value, m.unit, m.samples,
           m.raw != m.value ? ", raw " + json_number(m.raw) : "");
    std::cout << "pace kernel median " << json_number(report.pace.median_ms(false))
              << " ms, thread CPU "
              << json_number(report.pace.median_ms(true)) << " ms, over "
              << report.pace.count() << " samples (nominal "
              << perfbench::kPaceNominalMs << " ms)\n";
    if (report.pace.count() < perfbench::kPaceWindow)
      report.fail("fewer pace samples than one normalisation window");
    if (report.latency_ms(false).beyond(0.9) < 10)
      report.fail("p90_ms has fewer than 10 samples beyond it");
  }
  std::cout << "fingerprint";
  for (const auto& [key, value] : report.fingerprint)
    std::cout << " " << key << "=" << value;
  std::cout << "\n";
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const std::string& name : report.missing)
    std::cout << "missing " << name << "\n";
  for (const std::string& failure : report.failures)
    std::cout << "FAILED " << failure << "\n";

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
