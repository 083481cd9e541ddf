// BENCH_*.json report writing and baseline comparison.
//
// The JSON schema is a strict superset of the committed loopback baseline
// (BENCH_rpc_loopback.json) — clients, requests_ok/failed, wall_seconds,
// throughput_rps, latency_ms{mean,p50,p95,p99,max} — so committed history
// stays diffable. Beyond it: mode (open/closed), deployment, offered_rps,
// achieved_rps (== throughput_rps, kept under both names), the warm-up
// request count (excluded from every latency figure) and late-send
// accounting for the open-loop generator.
//
// compare_to_baseline() is the CI regression gate: achieved throughput may
// not drop more than `tolerance` below the baseline, and p95/p99 may not
// rise more than `tolerance` above it (plus a small absolute slack so a
// sub-millisecond baseline does not fail on scheduler jitter). Baselines
// load through extract_baseline(), which understands both the flat loopback
// schema and the nested router schema ("sharded.latency_ms.p95").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/flat_json.hpp"
#include "obs/histogram.hpp"
#include "util/common.hpp"

namespace cosched {

struct LatencySummary {
  Real mean = 0.0;
  Real p50 = 0.0;
  Real p95 = 0.0;
  Real p99 = 0.0;
  Real max = 0.0;

  static LatencySummary from(const Histogram& histogram);
};

struct BenchReport {
  std::string bench = "benchmark_app";
  std::string mode = "open";          ///< "open" | "closed"
  std::string deployment = "single";  ///< "single" | "router" | "remote"
  std::int64_t clients = 0;           ///< in-flight depth / stream count
  std::int64_t jobs_per_client = 0;   ///< 0 when requests are pooled
  std::uint64_t requests_ok = 0;      ///< measure phase only
  std::uint64_t requests_failed = 0;  ///< any phase
  std::uint64_t warmup_requests = 0;
  std::uint64_t late_sends = 0;
  Real max_late_ms = 0.0;
  Real offered_rps = 0.0;  ///< 0 in closed mode (no offered rate exists)
  Real achieved_rps = 0.0;
  Real wall_seconds = 0.0;  ///< measure window
  LatencySummary latency;   ///< measure phase only

  std::string to_json() const;
};

/// Writes `content` to `path`, creating parent directories. Shared by every
/// bench that emits a report or a scraped /metrics page.
bool write_text_file(const std::string& path, const std::string& content);

/// The four figures a regression check needs, pulled out of a parsed
/// baseline. `source_prefix` records where they were found ("" for the
/// flat schema, "sharded." for the router schema).
struct BaselineStats {
  bool ok = false;
  std::string source_prefix;
  Real throughput_rps = 0.0;
  Real p50_ms = 0.0;
  Real p95_ms = 0.0;
  Real p99_ms = 0.0;
};

BaselineStats extract_baseline(const FlatJson& json);

/// One gate of a comparison; `limit` is the value `current` must respect
/// (a floor for throughput, a ceiling for latency).
struct CompareCheck {
  std::string name;
  Real baseline = 0.0;
  Real current = 0.0;
  Real limit = 0.0;
  bool pass = true;
};

struct CompareResult {
  bool pass = true;
  std::vector<CompareCheck> checks;
  std::string describe() const;
};

/// Absolute slack added to latency ceilings (milliseconds) so relative
/// tolerances stay meaningful when the baseline is tiny.
inline constexpr Real kCompareLatencySlackMs = 2.0;

CompareResult compare_to_baseline(const BenchReport& current,
                                  const BaselineStats& baseline,
                                  Real tolerance);

}  // namespace cosched
