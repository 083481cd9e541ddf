#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "net/wire.hpp"
#include "obs/metrics_registry.hpp"
#include "rpc/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {
using Clock = std::chrono::steady_clock;
Clock::time_point g_process_start = Clock::now();
}  // namespace

void mark_process_start() { g_process_start = Clock::now(); }

double now_seconds() {
  return std::chrono::duration<double>(Clock::now() - g_process_start)
      .count();
}

// ---- samples ----------------------------------------------------------------

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::size_t Samples::beyond(double q) const {
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  return values_.size() - std::min(rank, values_.size());
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

// ---- host pace --------------------------------------------------------------

namespace {

volatile std::uint64_t g_pace_sink = 0;

/// The kernel: 40 000 inserts into a hash map over 100 000 keys and a
/// binary heap, then 40 000 lookups; about 10 ms on the tuning VM.
void pace_kernel() {
  std::uint64_t x = 42;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 17;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t> heap;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    const std::uint64_t key = next() % 100000;
    map[key] += i;
    heap.push(key ^ i);
    if (i % 3 == 0) heap.pop();
  }
  std::uint64_t sum = heap.size();
  for (int i = 0; i < 40000; ++i) {
    auto it = map.find(next() % 100000);
    if (it != map.end()) sum += it->second;
  }
  g_pace_sink = sum;
}

/// CPU time of the calling thread, in seconds. With paravirtual steal
/// accounting, time the host ran another guest on this vCPU is not charged
/// to the thread, as it is to a wall-clock interval.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

void HostPace::sample() {
  const double start = now_seconds();
  const double cpu_start = thread_cpu_seconds();
  pace_kernel();
  const double cpu_ms = (thread_cpu_seconds() - cpu_start) * 1e3;
  const double end = now_seconds();
  samples_.push_back({0.5 * (start + end), (end - start) * 1e3, cpu_ms});
}

void HostPace::sample_if_due() {
  if (samples_.empty() ||
      now_seconds() - samples_.back().mid >= kPaceEverySeconds)
    sample();
}

double HostPace::factor(double t, bool cpu) const {
  if (samples_.empty()) return 1.0;
  // Samples are in time order: widen a window around t to the nearest
  // kPaceWindow samples.
  auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, double v) { return s.mid < v; });
  std::size_t lo = static_cast<std::size_t>(it - samples_.begin());
  std::size_t hi = lo;
  while (hi - lo < kPaceWindow && (lo > 0 || hi < samples_.size())) {
    if (lo == 0 || (hi < samples_.size() &&
                    samples_[hi].mid - t < t - samples_[lo - 1].mid))
      ++hi;
    else
      --lo;
  }
  std::vector<double> window;
  for (std::size_t i = lo; i < hi; ++i)
    window.push_back(cpu ? samples_[i].cpu_ms : samples_[i].wall_ms);
  std::sort(window.begin(), window.end());
  const std::size_t n = window.size();
  const double median =
      n % 2 ? window[n / 2] : 0.5 * (window[n / 2 - 1] + window[n / 2]);
  return kPaceNominalMs / median;
}

double HostPace::median_ms(bool cpu) const {
  Samples all;
  for (const Sample& sample : samples_)
    all.add(cpu ? sample.cpu_ms : sample.wall_ms);
  return all.quantile(0.5);
}

// ---- report -----------------------------------------------------------------

double HostPace::scale(const Interval& interval) const {
  const double seconds = interval.end - interval.start;
  return seconds * factor(0.5 * (interval.start + interval.end),
                          seconds * 1e3 < kShortOpMs);
}

Samples Report::latency_ms(bool paced) const {
  Samples out;
  for (const Interval& op : ops)
    out.add((paced ? pace.scale(op) : op.end - op.start) * 1e3);
  return out;
}

double Report::throughput(bool paced) const {
  std::vector<Interval> sorted = ops;
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double busy = 0.0;
  auto close = [&](const Interval& stretch) {
    if (stretch.end > stretch.start)
      busy += paced ? pace.scale(stretch) : stretch.end - stretch.start;
  };
  Interval current{0.0, -1.0};
  for (const Interval& op : sorted) {
    if (op.start > current.end) {
      close(current);
      current = op;
    } else {
      current.end = std::max(current.end, op.end);
    }
  }
  close(current);
  return busy > 0.0 ? static_cast<double>(ops.size()) / busy : 0.0;
}

std::vector<double> Report::setup_s(bool paced) const {
  std::vector<double> out;
  for (const Interval& setup : setups)
    out.push_back(paced ? pace.scale(setup) : setup.end - setup.start);
  return out;
}

// ---- spans ------------------------------------------------------------------

std::int64_t SpanLog::open(const char* name, std::uint64_t op,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start = now_seconds();
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_seconds();
}

void SpanLog::add(const char* name, std::uint64_t op, double start,
                  double end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.op = op;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

SpanLog::Totals SpanLog::totals(const std::string& name) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
  Totals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    double duration = spans_[i].end - spans_[i].start;
    ++out.count;
    out.total_s += duration;
    out.self_s += duration - child_time[i];
  }
  return out;
}

std::vector<std::string> SpanLog::summary() const {
  std::vector<std::string> names;
  for (const Span& span : spans_)
    if (std::find(names.begin(), names.end(), span.name) == names.end())
      names.push_back(span.name);
  std::vector<std::string> lines;
  for (const std::string& name : names) {
    const Totals t = totals(name);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %s count=%llu total_s=%.6f self_s=%.6f mean_ms=%.4f",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s, t.mean_ms());
    lines.push_back(line);
  }
  return lines;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"parent\":%lld}}%s\n",
                  span.name, span.start * 1e6, (span.end - span.start) * 1e6,
                  static_cast<unsigned long long>(span.op),
                  static_cast<long long>(span.parent),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Report::fail(const std::string& what) {
  ++failed;
  failures.push_back(what);
}

// ---- inputs -----------------------------------------------------------------

double Weyl::at(std::uint64_t i) const {
  double x = offset_ + static_cast<double>(i) * alpha_;
  return x - std::floor(x);
}

std::size_t submit_frame_bytes(const cosched::TraceJob& job) {
  cosched::WireWriter body;
  cosched::encode_trace_job(body, job);
  cosched::RequestEnvelope envelope;
  envelope.type = cosched::MessageType::SubmitJob;
  envelope.body = body.take();
  return 8 + cosched::encode_request(envelope).size();  // magic + length
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t round,
                       std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    round * 0xBF58476D1CE4E5B9ULL +
                    salt * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

// Every stream: work uniform in [5, 30] virtual seconds, one job in five a
// parallel job of 2 to 4 processes.
constexpr double kWorkLo = 5.0;
constexpr double kWorkHi = 30.0;
constexpr double kParallelFraction = 0.2;
constexpr std::int32_t kMaxParallel = 4;

}  // namespace

std::vector<cosched::TraceJob> make_job_stream(const JobStreamSpec& spec) {
  cosched::Rng rng(mix_seed(spec.seed, spec.round, 0x10B5));
  // Fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7), sqrt(11), the
  // golden ratio: pairwise rationally independent, so the streams do not
  // lock into each other's patterns.
  Weyl miss(rng.uniform01(), 0.6180339887498949);
  Weyl work(rng.uniform01(), 0.4142135623730951);
  Weyl parallel(rng.uniform01(), 0.7320508075688772);
  Weyl jitter(rng.uniform01(), 0.2360679774997897);
  Weyl sens(rng.uniform01(), 0.6457513110645906);
  Weyl tenant(rng.uniform01(), 0.3166247903554);

  std::vector<double> zipf_cdf;
  if (spec.tenants > 0) {
    double total = 0.0;
    for (std::int32_t k = 0; k < spec.tenants; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), spec.tenant_skew);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }

  std::vector<cosched::TraceJob> jobs;
  jobs.reserve(static_cast<std::size_t>(spec.count));
  for (std::int32_t i = 0; i < spec.count; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    cosched::TraceJob job;
    job.arrival_time = (static_cast<double>(i) + 0.5 +
                        0.9 * (jitter.at(k) - 0.5)) *
                       spec.mean_interarrival;
    job.miss_rate = 0.15 + 0.6 * miss.at(k);
    job.sensitivity = 0.3 + job.miss_rate + 0.3 * (sens.at(k) - 0.5);
    job.work = kWorkLo + (kWorkHi - kWorkLo) * work.at(k);
    double p = parallel.at(k);
    if (p < kParallelFraction) {
      job.kind = cosched::JobKind::ParallelNoComm;
      job.processes = 2 + static_cast<std::int32_t>(p / kParallelFraction *
                                                    (kMaxParallel - 1));
      job.processes = std::min(job.processes, kMaxParallel);
    } else {
      job.kind = cosched::JobKind::Serial;
      job.processes = 1;
    }
    std::string name = "job" + std::to_string(i);
    if (!zipf_cdf.empty()) {
      double u = tenant.at(k);
      auto t = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      t = std::min(t, zipf_cdf.size() - 1);
      std::string tenant_key = "t";
      tenant_key += std::to_string(t);
      tenant_key += '/';
      name.insert(0, tenant_key);
    }
    job.name = std::move(name);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---- observability readers --------------------------------------------------

std::map<std::string, double> prometheus_families(const std::string& text) {
  std::vector<cosched::PrometheusSample> samples;
  cosched::parse_prometheus_text(text, samples);
  std::map<std::string, double> families;
  for (const cosched::PrometheusSample& sample : samples)
    families[sample.name] += sample.value;
  return families;
}

std::map<std::string, PhaseTime> parse_collapsed_profile(
    const std::string& text) {
  std::map<std::string, PhaseTime> phases;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    double self_s = std::strtod(line.c_str() + space + 1, nullptr) * 1e-6;
    std::string path = line.substr(0, space);
    std::vector<std::string> names;
    std::size_t start = 0;
    while (true) {
      std::size_t semi = path.find(';', start);
      names.push_back(path.substr(start, semi - start));
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
    phases[names.back()].self_s += self_s;
    // Count the line once per distinct ancestor name (recursion safe).
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (const std::string& name : names) phases[name].total_s += self_s;
  }
  return phases;
}

double family(const std::map<std::string, double>& families,
              const std::string& name, Report& report) {
  auto it = families.find(name);
  if (it != families.end()) return it->second;
  if (std::find(report.missing.begin(), report.missing.end(), name) ==
      report.missing.end())
    report.missing.push_back(name);
  return 0.0;
}

void read_server_layers(const ServerReadout& readout, double ops,
                        Report& report) {
  auto per_op = [&](const std::map<std::string, double>& families,
                    const char* family_name) {
    return family(families, family_name, report) / ops;
  };
  auto phase = [&](const char* name) {
    return phase_total(readout.phases, name, report) / ops;
  };
  const double expanded =
      per_op(readout.process, "cosched_astar_expansions_total");
  const double generated =
      per_op(readout.process, "cosched_astar_generated_total");
  report.layer("astar.searches",
               per_op(readout.process, "cosched_astar_searches_total"),
               "count/op");
  report.layer("astar.expanded", expanded, "count/op");
  report.layer("astar.generated", generated, "count/op");
  report.layer("astar.heuristic_evals",
               per_op(readout.process, "cosched_astar_heuristic_evals_total"),
               "count/op");
  report.layer("astar.dismissed",
               per_op(readout.process, "cosched_astar_dismissed_total"),
               "count/op");
  report.layer("astar.useful_ratio", generated > 0 ? expanded / generated : 0.0,
               "ratio");
  report.layer("astar.busy_s", phase("astar.search"), "s/op");
  report.layer("astar.precompute_s", phase("astar.precompute"), "s/op");
  report.layer("online.replan_s", phase("online.replan"), "s/op");
  report.layer("online.admission_s", phase("replan.admission"), "s/op");
  report.layer("online.build_s",
               phase_self(readout.phases, "replan.fresh_solve", report) / ops,
               "s/op");
  report.layer("online.commit_s", phase("replan.commit"), "s/op");
  report.layer("vm.align_s", phase("replan.alignment"), "s/op");
  report.layer("obs.scrape_ms", readout.scrape_ms, "ms");
  report.layer("obs.log_records",
               per_op(readout.service, "cosched_log_records_total"),
               "count/op");
  report.layer("obs.journal_events",
               per_op(readout.service, "cosched_journal_events_total"),
               "count/op");
  report.layer("obs.tracer_dropped",
               static_cast<double>(readout.tracer_dropped), "count");
}

double phase_total(const std::map<std::string, PhaseTime>& phases,
                   const std::string& name, Report& report) {
  auto it = phases.find(name);
  if (it != phases.end()) return it->second.total_s;
  report.missing.push_back("profile:" + name);
  return 0.0;
}

double phase_self(const std::map<std::string, PhaseTime>& phases,
                  const std::string& name, Report& report) {
  auto it = phases.find(name);
  if (it != phases.end()) return it->second.self_s;
  report.missing.push_back("profile:" + name);
  return 0.0;
}

CpuPin::CpuPin() {
  cpu_set_t current;
  CPU_ZERO(&current);
  if (sched_getaffinity(0, sizeof(current), &current) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &current)) previous_.push_back(cpu);
  if (previous_.empty()) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(previous_.back(), &pinned);
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) previous_.clear();
}

CpuPin::~CpuPin() {
  if (previous_.empty()) return;
  cpu_set_t restore;
  CPU_ZERO(&restore);
  for (int cpu : previous_) CPU_SET(cpu, &restore);
  sched_setaffinity(0, sizeof(restore), &restore);
}

IdleSpinner::IdleSpinner()
    : thread_([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      }) {}

IdleSpinner::~IdleSpinner() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

namespace {

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (char c : line) {
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      cells.push_back(cell);
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

}  // namespace

ReplanCheck check_replans_csv(const std::string& csv) {
  ReplanCheck check;
  std::istringstream in(csv);
  std::string line;
  int combined_col = -1, stay_col = -1, degradation_col = -1;
  while (std::getline(in, line)) {
    std::vector<std::string> cells = split_csv(line);
    if (combined_col < 0) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == "combined") combined_col = static_cast<int>(i);
        if (cells[i] == "stay combined") stay_col = static_cast<int>(i);
        if (cells[i] == "degradation") degradation_col = static_cast<int>(i);
      }
      if (combined_col < 0 || stay_col < 0 || degradation_col < 0)
        combined_col = stay_col = degradation_col = -1;
      check.parsed = combined_col >= 0;
      continue;
    }
    if (static_cast<int>(cells.size()) <=
        std::max({combined_col, stay_col, degradation_col}))
      continue;
    ++check.rows;
    double combined = std::strtod(cells[combined_col].c_str(), nullptr);
    double stay = std::strtod(cells[stay_col].c_str(), nullptr);
    double degradation = std::strtod(cells[degradation_col].c_str(), nullptr);
    if (combined > stay) ++check.worse_than_stay;
    if (stay > 0.0) {
      check.ratio_sum += degradation / stay;
      ++check.ratio_count;
    }
  }
  return check;
}

std::optional<double> summary_value(const std::string& csv,
                                    const std::string& metric) {
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells = split_csv(line);
    if (cells.size() >= 2 && cells[0] == metric)
      return std::strtod(cells[1].c_str(), nullptr);
  }
  return std::nullopt;
}

}  // namespace perfbench

namespace perfbench {

void Quality::add(const std::string& csv) {
  ReplanCheck check = check_replans_csv(csv);
  if (!check.parsed) missing.push_back("replans table");
  ratio_sum += check.ratio_sum;
  ratio_count += check.ratio_count;
  worse_than_stay += check.worse_than_stay;
  auto row = [&](const char* name) {
    std::optional<double> value = summary_value(csv, name);
    if (!value) missing.push_back(std::string("summary: ") + name);
    return value.value_or(0.0);
  };
  const auto done = static_cast<std::uint64_t>(row("completions"));
  slowdown_weighted += row("mean slowdown") * static_cast<double>(done);
  completions += done;
  replans += static_cast<std::uint64_t>(row("replans"));
  migrations += static_cast<std::uint64_t>(row("migrations"));
}

void Quality::apply(Report& report) const {
  report.degradation = ratio_count ? ratio_sum / ratio_count : 0.0;
  report.slowdown =
      completions ? slowdown_weighted / static_cast<double>(completions) : 0.0;
  report.migrations_per_replan =
      replans ? static_cast<double>(migrations) / replans : 0.0;
  report.quality_decisions = ratio_count;
  report.quality_jobs = completions;
  report.quality_replans = replans;
  for (const std::string& name : missing)
    if (std::find(report.missing.begin(), report.missing.end(), name) ==
        report.missing.end())
      report.missing.push_back(name);
  if (worse_than_stay > 0)
    report.fail(std::to_string(worse_than_stay) +
                " replayed replans committed worse than staying put");
}

std::vector<std::vector<std::string>> replay_rounds(
    std::uint64_t rounds, unsigned threads,
    const std::function<std::vector<std::string>(std::uint64_t)>& round) {
  std::vector<std::vector<std::string>> csvs(rounds);
  const std::uint64_t workers = std::min<std::uint64_t>(
      rounds,
      std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, threads));
  std::vector<std::thread> pool;
  for (std::uint64_t w = 0; w < workers; ++w)
    pool.emplace_back([&, w] {
      for (std::uint64_t r = w; r < rounds; r += workers) {
        try {
          csvs[r] = round(r);
        } catch (const std::exception&) {
          csvs[r].clear();  // the caller reports an empty round as failed
        }
      }
    });
  for (std::thread& thread : pool) thread.join();
  return csvs;
}

}  // namespace perfbench
