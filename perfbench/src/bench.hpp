// Shared pieces of the co-scheduling benchmark: raw latency samples with
// exact order statistics, an in-memory span log, the per-run report, the
// seeded low-discrepancy input generators and tolerant readers for the
// program's own observability surfaces (/metrics, /debug/profile).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "online/trace.hpp"

namespace perfbench {

/// Seconds on the steady clock since mark_process_start() (entry of main).
void mark_process_start();
double now_seconds();

/// Raw per-operation wall times. Percentiles are exact order statistics
/// (nearest rank), never interpolated from buckets.
class Samples {
 public:
  void add(double ms) { values_.push_back(ms); }
  std::size_t count() const { return values_.size(); }
  /// Nearest-rank quantile: the ceil(q * n)-th smallest sample.
  double quantile(double q) const;
  double mean() const;
  /// Samples strictly above the q-quantile's rank.
  std::size_t beyond(double q) const;

 private:
  std::vector<double> values_;
};

/// Spans recorded by the benchmark around the public calls it makes. Kept
/// in memory; written as Chrome trace-event JSON once the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;   ///< operation id shared by the spans of one op
    std::int64_t parent = -1;
    double start = 0.0;     ///< seconds since process start
    double end = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t op,
                    std::int64_t parent = -1);
  void close(std::int64_t index);
  /// Logs an already-timed span (seconds since process start).
  void add(const char* name, std::uint64_t op, double start, double end);

  /// Total and self time (duration minus the time its children cover) of
  /// every span with this name, in seconds, and how many there were.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double mean_ms() const { return count ? total_s * 1e3 / count : 0.0; }
  };
  Totals totals(const std::string& name) const;
  /// One "span <name> count=.. total_s=.. self_s=.." line per span name.
  std::vector<std::string> summary() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t op,
             std::int64_t parent = -1)
      : log_(log), index_(log.open(name, op, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Parent handle for child spans (-1 when the log is disabled).
  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

/// One timed interval, in seconds since process start.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// A fixed allocation-, hash- and heap-heavy kernel that shares no code
/// with the program, timed between the operations of a run. On the shared
/// 4-vCPU VM this benchmark was tuned on, the memory system's speed moved
/// by up to 2x over minutes (the same OA* solves took 75 ms in one stretch
/// and 125 ms in the next); the kernel's time moved with it, so that the
/// ratio of solve time to kernel time stayed within a few percent. Timed
/// end-to-end metrics are rescaled by that ratio (pace-normalised): a wall
/// time w measured at time t reports as w * kPaceNominalMs / (median of the
/// kPaceWindow kernel times sampled nearest t), the kernel's wall times or,
/// for w below kShortOpMs, its thread CPU times.
class HostPace {
 public:
  /// Runs the kernel once and records its time, wall and thread CPU.
  void sample();
  /// Samples when at least kPaceEverySeconds passed since the last sample.
  void sample_if_due();
  /// The interval's pace-normalised length in seconds (see kShortOpMs).
  double scale(const Interval& interval) const;
  std::size_t count() const { return samples_.size(); }
  /// Median kernel time over the run, wall or thread CPU.
  double median_ms(bool cpu) const;

 private:
  /// kPaceNominalMs over the median kernel time, wall or thread CPU,
  /// around time t (1 without samples).
  double factor(double t, bool cpu) const;

  struct Sample {
    double mid = 0.0;  ///< seconds since process start
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
  };
  std::vector<Sample> samples_;
};

inline constexpr double kPaceNominalMs = 10.0;
inline constexpr double kPaceEverySeconds = 0.1;
inline constexpr std::size_t kPaceWindow = 7;
/// Intervals shorter than this are scaled by the kernel's thread CPU time,
/// longer ones by its wall time. When the host runs another guest on this
/// vCPU for a few milliseconds now and then (steal), a 10 ms kernel and a
/// 6-100 ms replan or solve are slowed alike, but most 0.3 ms requests are
/// missed, so their median barely moves while the kernel's wall time does.
/// With a competing thread taking 20-30 % of fleet-burst's CPU in bursts of
/// 1-5 ms, its raw p50 rose by up to a fifth, and scaled by the kernel's
/// wall time it read 13-18 % low; scaled by its CPU time (which, with
/// paravirtual steal accounting, steal is not charged to), it stayed within
/// 8 % of the undisturbed runs.
inline constexpr double kShortOpMs = 1.0;

/// Everything one run reports. End-to-end metrics are filled on every run;
/// per-layer metrics only on traced runs.
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  std::vector<Interval> ops;     ///< measure-phase operations
  std::vector<Interval> setups;  ///< one per set-up made in the run
  HostPace pace;
  double degradation = 0.0;
  double slowdown = 0.0;
  double migrations_per_replan = 0.0;
  double peak_rss_mb = 0.0;  ///< read before any untimed replay phase
  /// Sample counts behind degradation, slowdown and migrations_per_replan.
  std::uint64_t quality_decisions = 0;
  std::uint64_t quality_jobs = 0;
  std::uint64_t quality_replans = 0;
  std::uint64_t rounds = 0;

  /// Work fingerprint of the first round: must repeat exactly for one
  /// commit and seed on the deterministic workloads.
  std::map<std::string, std::string> fingerprint;

  /// Per-layer metrics ("module.metric" -> value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
  std::vector<std::string> missing;  ///< families the program no longer exposes
  std::vector<std::string> notes;    ///< extra human-readable output lines

  void fail(const std::string& what);
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  /// Operation latencies in ms, raw or pace-normalised.
  Samples latency_ms(bool paced) const;
  /// Operations per busy second (the union of their in-flight intervals),
  /// raw or with every busy stretch pace-normalised.
  double throughput(bool paced) const;
  /// Set-up times in seconds, raw or pace-normalised.
  std::vector<double> setup_s(bool paced) const;
};

// ---- inputs --------------------------------------------------------------

/// Seeded low-discrepancy stream: frac(offset + i * alpha) with an
/// irrational alpha. Every seed gets an equidistributed sequence (so every
/// seed offers the same load); the seed moves the offsets and thereby which
/// jobs meet which.
class Weyl {
 public:
  Weyl(double offset, double alpha) : offset_(offset), alpha_(alpha) {}
  double at(std::uint64_t i) const;

 private:
  double offset_;
  double alpha_;
};

struct JobStreamSpec {
  std::uint64_t seed = 1;
  std::uint64_t round = 0;
  std::int32_t count = 100;
  double mean_interarrival = 2.0;  ///< virtual seconds
  /// > 0: names carry a tenant key "t<k>/" drawn Zipf(tenant_skew) over
  /// `tenants`; the shard router hashes on it.
  std::int32_t tenants = 0;
  double tenant_skew = 1.0;
};

std::vector<cosched::TraceJob> make_job_stream(const JobStreamSpec& spec);

/// Bytes of the CSC1 frame a SubmitJob request for `job` puts on the wire.
std::size_t submit_frame_bytes(const cosched::TraceJob& job);

/// splitmix64 — derives independent sub-seeds from (seed, round, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t round,
                       std::uint64_t salt);

// ---- observability readers -------------------------------------------------

/// Prometheus text exposition, summed over label sets per sample name.
/// Families the text does not contain are absent (not zero). An
/// exposition the parser stops on keeps the samples before the bad line.
std::map<std::string, double> prometheus_families(const std::string& text);

/// Collapsed-stack profile ("a;b;c self_us" per line): per phase name, the
/// self seconds and the total seconds (self plus everything under it).
struct PhaseTime {
  double self_s = 0.0;
  double total_s = 0.0;
};
std::map<std::string, PhaseTime> parse_collapsed_profile(
    const std::string& text);

/// What a server exposes, read once at the end of the timed phase.
struct ServerReadout {
  std::map<std::string, double> service;   ///< the server's /metrics page
  std::map<std::string, double> process;   ///< the process-wide registry
  std::map<std::string, PhaseTime> phases; ///< /debug/profile
  double scrape_ms = 0.0;                  ///< time to fetch /metrics
  std::uint64_t tracer_dropped = 0;        ///< from the GetMetrics reply
};

/// The per-layer metrics both online workloads read the same way: astar
/// counters and search time, the replan phases, vm alignment and the obs
/// counters, per operation served.
void read_server_layers(const ServerReadout& readout, double ops,
                        Report& report);

/// Looks a family up; records it as missing on the report when absent.
double family(const std::map<std::string, double>& families,
              const std::string& name, Report& report);
double phase_total(const std::map<std::string, PhaseTime>& phases,
                   const std::string& name, Report& report);
double phase_self(const std::map<std::string, PhaseTime>& phases,
                  const std::string& name, Report& report);

/// Restricts the calling thread, and every thread it starts while the pin
/// is held, to the last CPU it may run on (CPU 0 usually takes the device
/// interrupts and housekeeping); restores the previous set on destruction,
/// so untimed replays get every CPU.
///
/// The timed phase of every workload runs on one CPU, as in the
/// single-core CI container the ROADMAP describes: on the 4-vCPU VM this
/// benchmark was tuned on, a sub-millisecond request path whose threads
/// hand off across vCPUs read 0.5 ms in one run and 1.0 ms in the next,
/// depending on where the threads landed; on one CPU the same seed reads
/// within a few percent.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  std::vector<int> previous_;
};

/// Keeps the CPU it runs on from going idle while it lives: a SCHED_IDLE
/// thread that spins, and that any other runnable thread preempts at once.
/// On the tuning VM an idle vCPU is halted, and waking it went through the
/// hypervisor: when the host was busy, fleet-burst's sub-millisecond p50
/// read 0.55-0.6 ms in some runs instead of 0.36 ms, with the pace kernel
/// (which never lets the CPU idle) barely slower.
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// Parses the replans table out of a deterministic metrics CSV: counts
/// committed replans whose combined objective exceeds staying put, and sums
/// each committed placement's Eq. 13 degradation as a share of the
/// stay-put placement's (replans whose stay-put degradation is 0 have no
/// share and are skipped).
struct ReplanCheck {
  std::uint64_t rows = 0;
  std::uint64_t worse_than_stay = 0;
  double ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  bool parsed = false;
};
ReplanCheck check_replans_csv(const std::string& csv);

/// A row of the deterministic summary table ("mean slowdown", "replans").
std::optional<double> summary_value(const std::string& csv,
                                    const std::string& metric);

/// Schedule quality folded from deterministic metrics CSVs, one per
/// scheduler: degradation is the mean, over committed replans, of the
/// placement's Eq. 13 degradation as a share of staying put; slowdown is
/// the completion-weighted mean job slowdown; migrations per replan is a
/// ratio of totals.
struct Quality {
  double ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  double slowdown_weighted = 0.0;
  std::uint64_t completions = 0;
  std::uint64_t replans = 0;
  std::uint64_t migrations = 0;
  std::uint64_t worse_than_stay = 0;
  std::vector<std::string> missing;

  void add(const std::string& csv);
  void apply(Report& report) const;
};

/// Runs `round(r)` for r in [0, rounds) on up to `threads` threads (at most
/// the CPU count) and returns
/// each round's metrics CSVs in round order. Used for the untimed quality
/// replays: rounds are independent schedulers, so the result is a pure
/// function of the seed however the rounds are spread over threads.
std::vector<std::vector<std::string>> replay_rounds(
    std::uint64_t rounds, unsigned threads,
    const std::function<std::vector<std::string>(std::uint64_t)>& round);

// ---- workloads -------------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  ///< span files
};

Report run_online_churn(const RunOptions& options);
Report run_fleet_burst(const RunOptions& options);
Report run_offline_oastar(const RunOptions& options);

}  // namespace perfbench
