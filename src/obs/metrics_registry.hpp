// Live metrics registry with Prometheus text-format exposition.
//
// Named counters, gauges and histograms, registered once and updated
// lock-free (atomics) from any thread. Naming convention (enforced):
// `cosched_<subsystem>_<name>`, counters suffixed `_total`, with only
// [a-zA-Z0-9_:] — what the Prometheus exposition format allows.
//
// Registration is idempotent: counter("x", ...) returns the same Counter
// forever; re-registering a name as a different kind is a contract
// violation. Callback metrics sample a closure at render time — the bridge
// for values owned elsewhere (a server's queue depth, its open
// connections) that would be wasteful to mirror write-by-write.
//
// MetricsRegistry::global() serves the process-wide registry used by the
// solver instrumentation and the RPC server; tests needing isolation
// construct their own instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace cosched {

/// Monotonic counter. Prometheus type "counter".
class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Set-or-adjust gauge. Prometheus type "gauge".
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double by) {
    // fetch_add on atomic<double> needs C++20 + hardware support; a CAS
    // loop is portable and this is never on a hot path.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + by,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Mutex-guarded histogram. Prometheus type "histogram" (cumulative
/// buckets, _sum, _count; invalid samples surface as `<name>_invalid_total`).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<Real> upper_edges)
      : histogram_(std::move(upper_edges)) {}

  /// `trace_id` != 0 additionally records the sample as its bucket's
  /// exemplar (see Histogram::add), linking the exposition to a trace.
  void observe(Real x, std::uint64_t trace_id = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.add(x, trace_id);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  Histogram histogram_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (solver counters, RPC server metrics).
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  HistogramMetric& histogram(const std::string& name, const std::string& help,
                             std::vector<Real> upper_edges);

  /// Metric whose value is pulled from `sample` at render time.
  /// `type` is "counter" or "gauge". Re-registering a name replaces the
  /// callback (servers re-register on restart).
  void callback(const std::string& name, const std::string& help,
                const std::string& type, std::function<double()> sample);
  /// Drops a callback metric; no-op when absent. Owners of sampled state
  /// must unregister before that state dies.
  void unregister_callback(const std::string& name);

  /// Prometheus text exposition, metrics sorted by name. Histogram
  /// bucket counts are cumulative and end with le="+Inf", as the format
  /// requires. With `with_exemplars`, bucket lines whose bucket holds an
  /// exemplar gain the OpenMetrics ` # {trace_id="<16-hex>"} <value>`
  /// suffix (the default stays off so pre-exemplar consumers see unchanged
  /// bytes).
  std::string render_prometheus(bool with_exemplars = false) const;

  /// True iff `name` satisfies the exposition charset and the repo's
  /// `cosched_` prefix convention.
  static bool valid_name(const std::string& name);

 private:
  struct Entry {
    std::string help;
    // Exactly one of these is set.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::function<double()> sample;
    std::string sample_type;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< ordered => sorted exposition
};

/// One sample line of a Prometheus exposition, as parsed back by tests and
/// by the bench's /metrics snapshot check.
struct PrometheusSample {
  std::string name;    ///< includes _bucket/_sum/_count suffixes
  std::string labels;  ///< raw label block without braces, may be empty
  double value = 0.0;
  // OpenMetrics exemplar suffix (` # {labels} value`), when present.
  bool has_exemplar = false;
  std::string exemplar_labels;  ///< raw label block, e.g. trace_id="..."
  double exemplar_value = 0.0;
};

/// Parses the sample lines of a text exposition (comments skipped).
/// Returns false on any malformed line. The round-trip property — render,
/// parse, compare — is what the tests assert. OpenMetrics exemplar
/// suffixes are parsed into the exemplar fields.
bool parse_prometheus_text(const std::string& text,
                           std::vector<PrometheusSample>& out);

/// 16-digit lowercase hex form of a trace id — the exemplar label value.
std::string trace_id_hex(std::uint64_t trace_id);

/// Shortest decimal form that round-trips a double, integral values as
/// plain integers — the exposition's value formatting, shared with the
/// shard router's fleet page so merged and single-instance renders agree
/// byte for byte.
std::string format_prometheus_value(double v);

/// Renders one histogram as Prometheus text samples (TYPE comment,
/// cumulative buckets ending at le="+Inf", _sum, _count, and
/// `<name>_invalid_total` when any sample was rejected). With
/// `with_exemplars`, bucket lines whose bucket holds an exemplar gain the
/// OpenMetrics ` # {trace_id="<16-hex>"} <value>` suffix. This is the one
/// code path behind both MetricsRegistry::render_prometheus and the shard
/// router's fan-in /metrics page (which renders merged histograms that
/// live in no registry).
void render_prometheus_histogram(std::ostream& out, const std::string& name,
                                 const Histogram& histogram,
                                 bool with_exemplars);

}  // namespace cosched
