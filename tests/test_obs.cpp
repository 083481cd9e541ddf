// Tests for the observability layer (src/obs): the relocated Histogram's
// invalid-sample accounting, quantiles and merging; Tracer span nesting,
// thread-merge determinism, the Chrome trace-event exporter, the bounded
// per-thread rings and head-based trace sampling; the metrics
// registry's Prometheus round-trip; cache counters against a hand-computed
// sequence; and the acceptance criterion — a replan traced end to end
// shows the admission -> replan.fresh_solve -> alignment -> commit
// hierarchy, and a traced HA* solve non-zero expansion counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "astar/search.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "online/journal.hpp"
#include "online/scheduler.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::reset_global_tracer;

// ------------------------------------------------------------ histogram

TEST(ObsHistogram, InvalidSamplesAreDroppedAndCounted) {
  Histogram h({1.0, 2.0});
  h.add(0.5);
  h.add(std::numeric_limits<Real>::quiet_NaN());
  h.add(-3.0);
  h.add(1.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.invalid(), 2u);
  EXPECT_NEAR(h.sum(), 2.0, 1e-12);  // rejected samples never touch sum
  EXPECT_EQ(h.max(), 1.5);
  EXPECT_NE(h.summary().find("invalid:2"), std::string::npos);

  Histogram clean({1.0});
  clean.add(0.5);
  EXPECT_EQ(clean.summary().find("invalid"), std::string::npos);
}

TEST(ObsHistogram, QuantileInterpolatesWithinBuckets) {
  Histogram empty({1.0});
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  Histogram h({2.0, 4.0});
  for (Real x : {1.0, 2.0, 3.0, 4.0}) h.add(x);
  EXPECT_NEAR(h.quantile(0.25), 1.0, 1e-12);  // halfway into [0, 2]
  EXPECT_NEAR(h.quantile(0.5), 2.0, 1e-12);
  EXPECT_NEAR(h.quantile(1.0), 4.0, 1e-12);
  // Monotone in q.
  Real prev = 0.0;
  for (Real q = 0.0; q <= 1.0; q += 0.05) {
    Real v = h.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }

  // Overflow samples are credited at the observed max.
  Histogram overflow({1.0});
  overflow.add(10.0);
  EXPECT_EQ(overflow.quantile(0.99), 10.0);
}

// Degenerate shapes the alerting TSDB leans on: an empty histogram answers
// 0 for every q, a single sample answers (an interpolation of) itself, and
// an all-overflow histogram pins every quantile to the observed max rather
// than inventing a value beyond the widest finite edge.
TEST(ObsHistogram, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  for (Real q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(empty.quantile(q), 0.0);

  // One in-range sample: the bucket's upper edge is capped at the observed
  // max, so every quantile lands between the bucket's lower edge and the
  // sample itself — never an invented value above what was seen.
  Histogram single({1.0, 2.0});
  single.add(1.5);
  for (Real q : {0.01, 0.5, 0.99, 1.0}) {
    Real v = single.quantile(q);
    EXPECT_GE(v, 1.0 - 1e-12) << q;
    EXPECT_LE(v, 1.5 + 1e-12) << q;
  }
  EXPECT_NEAR(single.quantile(1.0), 1.5, 1e-12);

  // Every sample past the widest finite edge: quantiles report the observed
  // max, and stay monotone.
  Histogram overflow({1.0, 2.0});
  overflow.add(50.0);
  overflow.add(75.0);
  overflow.add(100.0);
  EXPECT_EQ(overflow.quantile(0.5), 100.0);
  EXPECT_EQ(overflow.quantile(0.99), 100.0);
  Real prev = 0.0;
  for (Real q = 0.0; q <= 1.0; q += 0.1) {
    Real v = overflow.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(ObsHistogram, MergeFoldsBucketsSumsAndInvalids) {
  Histogram a({1.0, 5.0});
  a.add(0.5);
  a.add(3.0);
  a.add(-1.0);  // invalid
  Histogram b({1.0, 5.0});
  b.add(0.25);
  b.add(100.0);  // overflow

  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.invalid(), 1u);
  EXPECT_EQ(a.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_NEAR(a.sum(), 0.5 + 3.0 + 0.25 + 100.0, 1e-12);
  EXPECT_EQ(a.max(), 100.0);

  Histogram zero({1.0, 5.0});
  a.merge(zero);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.max(), 100.0);
}

TEST(ObsHistogram, MergeEdgeCases) {
  // Empty into empty: still empty, still sane.
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.invalid(), 0u);
  EXPECT_EQ(a.sum(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.quantile(0.5), 0.0);

  // Empty into populated and populated into empty both keep max() correct.
  Histogram filled({1.0, 2.0});
  filled.add(1.5);
  filled.merge(a);
  EXPECT_EQ(filled.count(), 1u);
  EXPECT_EQ(filled.max(), 1.5);
  a.merge(filled);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.max(), 1.5);

  // Mismatched bucket layouts are a contract violation, not a silent
  // misfold: differing edge values and differing edge counts both throw.
  Histogram other_edges({1.0, 3.0});
  EXPECT_THROW(a.merge(other_edges), ContractViolation);
  Histogram more_edges({1.0, 2.0, 3.0});
  EXPECT_THROW(a.merge(more_edges), ContractViolation);

  // Invalid-sample counters accumulate across merges without ever
  // touching count/sum.
  Histogram left({1.0});
  left.add(std::numeric_limits<Real>::quiet_NaN());
  left.add(0.5);
  Histogram right({1.0});
  right.add(-1.0);
  right.add(-2.0);
  left.merge(right);
  EXPECT_EQ(left.count(), 1u);
  EXPECT_EQ(left.invalid(), 3u);
  EXPECT_NEAR(left.sum(), 0.5, 1e-12);
}

// --------------------------------------------------------------- tracer

// Record one fixed sequence into `tracer`: a nested span pair with an
// instant and a counter on the calling thread, then one span on a second
// (joined) thread.
void record_fixture(Tracer& tracer) {
  tracer.set_enabled(true);
  tracer.begin_span("outer", 1.5, "k=v");
  tracer.instant("tick");
  tracer.begin_span("inner");
  tracer.counter("widgets", 3.0);
  tracer.end_span();
  tracer.end_span();
  std::thread worker([&tracer] {
    tracer.begin_span("worker");
    tracer.end_span();
  });
  worker.join();
  tracer.set_enabled(false);
}

TEST(ObsTracer, DumpTextShowsNestingAndMergedThreadsDeterministically) {
  Tracer tracer;
  record_fixture(tracer);
  const std::string expected =
      "thread 0\n"
      "span outer @vt=1.500 [k=v]\n"
      "  mark tick\n"
      "  span inner\n"
      "    count widgets = 3.000\n"
      "thread 1\n"
      "span worker\n";
  EXPECT_EQ(tracer.dump_text(), expected);

  // Same sequence, fresh tracer: byte-identical dump (wall times never
  // appear in the text form).
  Tracer again;
  record_fixture(again);
  EXPECT_EQ(again.dump_text(), expected);
  EXPECT_EQ(again.event_count(), 8u);  // 3 begins + 3 ends + instant + counter

  again.reset();
  EXPECT_EQ(again.event_count(), 0u);
  EXPECT_EQ(again.dump_text(), "");
}

TEST(ObsTracer, ChromeJsonIsStructuredAndTimeOrdered) {
  Tracer tracer;
  record_fixture(tracer);
  std::string json = tracer.export_chrome_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  // Closed spans export as complete ("X") events with a duration.
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"virtual_time\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"k=v\""), std::string::npos);

  // The exporter's contract: events sorted by timestamp.
  std::vector<double> stamps;
  for (std::size_t at = json.find("\"ts\":"); at != std::string::npos;
       at = json.find("\"ts\":", at + 1))
    stamps.push_back(std::strtod(json.c_str() + at + 5, nullptr));
  ASSERT_GE(stamps.size(), 5u);
  for (std::size_t i = 1; i < stamps.size(); ++i)
    EXPECT_GE(stamps[i], stamps[i - 1]);
}

TEST(ObsTracer, SpansStartedWhileDisabledRecordNothing) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.reset();
  {
    TraceSpan latched("never");
    // Enabling mid-span must not produce a dangling End event: TraceSpan
    // latches the decision at construction.
    tracer.set_enabled(true);
    COSCHED_TRACE_INSTANT("visible");
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(tracer.dump_text().find("never"), std::string::npos);
  tracer.reset();
}

TEST(ObsTracer, EventCountPlateausAndDropsAreCounted) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_events_per_thread(64);

  for (int i = 0; i < 200; ++i) tracer.counter("tick", i);
  EXPECT_EQ(tracer.event_count(), 64u);  // plateau at the ring capacity
  EXPECT_EQ(tracer.dropped_events(), 200u - 64u);

  // Sustained load: the plateau holds, only the drop counter moves.
  for (int i = 200; i < 300; ++i) tracer.counter("tick", i);
  EXPECT_EQ(tracer.event_count(), 64u);
  EXPECT_EQ(tracer.dropped_events(), 300u - 64u);

  // The ring keeps the *newest* events, oldest-first: the survivors are
  // samples 236..299 in record order.
  std::istringstream dump(tracer.dump_text());
  std::vector<std::string> lines;
  for (std::string line; std::getline(dump, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u + 64u);  // thread header + one line per event
  EXPECT_EQ(lines[1], "count tick = 236.000");
  EXPECT_EQ(lines.back(), "count tick = 299.000");

  // reset() empties the ring and zeroes drops.
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  // Capacity 0 clamps to 1 instead of dividing by zero somewhere dark.
  tracer.set_max_events_per_thread(0);
  EXPECT_EQ(tracer.max_events_per_thread(), 1u);
}

// -------------------------------------------------- head-based sampling

TEST(ObsTracer, DeterministicPerTraceDecisionsAtTheConfiguredRate) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sample_every(4);
  tracer.set_sample_seed(123);

  int sampled = 0;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    TraceContext first = tracer.make_context(id);
    TraceContext second = tracer.make_context(id);
    EXPECT_EQ(first.sampled, second.sampled);  // decision is pure in id
    if (first.sampled) ++sampled;
  }
  // ~1-in-4 of 64 ids; the hash is uniform enough that the count cannot
  // collapse to "all" or "none".
  EXPECT_GE(sampled, 4);
  EXPECT_LE(sampled, 40);
  EXPECT_GT(tracer.sampled_out_traces(), 0u);

  // trace_id 0 ("no trace") and rate 1 are always sampled.
  EXPECT_TRUE(tracer.make_context(0).sampled);
  tracer.set_sample_every(1);
  for (std::uint64_t id = 1; id <= 8; ++id)
    EXPECT_TRUE(tracer.make_context(id).sampled);
}

TEST(ObsTracer, SampledOutTracesRecordNothingExceptAlwaysKeep) {
  reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_sample_every(1000000);  // effectively: drop every trace
  tracer.set_sample_seed(7);
  tracer.set_always_keep({"replan."});

  std::uint64_t dropped_id = 0;
  for (std::uint64_t id = 1; id <= 64 && dropped_id == 0; ++id)
    if (!tracer.make_context(id).sampled) dropped_id = id;
  ASSERT_NE(dropped_id, 0u) << "no sampled-out id found in 64 tries";

  {
    TraceContextScope scope(tracer.make_context(dropped_id));
    { TraceSpan invisible("online.other"); }
    tracer.instant("other.tick");
    tracer.counter("other.widgets", 1.0);
    EXPECT_EQ(tracer.event_count(), 0u);  // the whole trace vanished

    // Always-keep prefixes survive even inside a dropped trace.
    { TraceSpan kept("replan.commit"); }
    tracer.instant("replan.tick");
    EXPECT_EQ(tracer.event_count(), 3u);  // begin + end + instant
  }

  // A sampled trace records everything again.
  tracer.set_sample_every(1);
  {
    TraceContextScope scope(tracer.make_context(99));
    { TraceSpan visible("online.other"); }
    EXPECT_EQ(tracer.event_count(), 5u);
  }

  reset_global_tracer();
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, ValidNameEnforcesConventionAndCharset) {
  EXPECT_TRUE(MetricsRegistry::valid_name("cosched_cache_hits_total"));
  EXPECT_TRUE(MetricsRegistry::valid_name("cosched_rpc_request_seconds"));
  EXPECT_FALSE(MetricsRegistry::valid_name("cache_hits_total"));  // no prefix
  EXPECT_FALSE(MetricsRegistry::valid_name("cosched_bad-dash"));
  EXPECT_FALSE(MetricsRegistry::valid_name("cosched_bad space"));
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& first = reg.counter("cosched_test_widgets_total", "widgets");
  first.inc(2);
  Counter& second = reg.counter("cosched_test_widgets_total", "widgets");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value(), 2u);
}

TEST(ObsRegistry, PrometheusRenderRoundTripsThroughTheParser) {
  MetricsRegistry reg;
  reg.counter("cosched_test_widgets_total", "widgets made").inc(42);
  reg.gauge("cosched_test_depth", "queue depth").set(2.5);
  HistogramMetric& latency =
      reg.histogram("cosched_test_latency_seconds", "latency", {0.1, 1.0});
  latency.observe(0.05);
  latency.observe(0.5);
  latency.observe(5.0);
  reg.callback("cosched_test_sampled", "pulled at render time", "gauge",
               [] { return 7.0; });

  std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# HELP cosched_test_widgets_total widgets made"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cosched_test_latency_seconds histogram"),
            std::string::npos);

  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(text, samples));
  std::map<std::string, double> by_key;
  for (const PrometheusSample& s : samples)
    by_key[s.name + (s.labels.empty() ? "" : "{" + s.labels + "}")] = s.value;

  EXPECT_EQ(by_key.at("cosched_test_widgets_total"), 42.0);
  EXPECT_EQ(by_key.at("cosched_test_depth"), 2.5);
  EXPECT_EQ(by_key.at("cosched_test_sampled"), 7.0);
  // Buckets are cumulative and end with le="+Inf" == _count.
  EXPECT_EQ(by_key.at("cosched_test_latency_seconds_bucket{le=\"0.1\"}"), 1.0);
  EXPECT_EQ(by_key.at("cosched_test_latency_seconds_bucket{le=\"1\"}"), 2.0);
  EXPECT_EQ(by_key.at("cosched_test_latency_seconds_bucket{le=\"+Inf\"}"),
            3.0);
  EXPECT_EQ(by_key.at("cosched_test_latency_seconds_count"), 3.0);
  EXPECT_NEAR(by_key.at("cosched_test_latency_seconds_sum"), 5.55, 1e-9);

  // Exposition is sorted by metric name.
  EXPECT_LT(text.find("cosched_test_depth"),
            text.find("cosched_test_latency_seconds"));
  EXPECT_LT(text.find("cosched_test_latency_seconds"),
            text.find("cosched_test_sampled"));
}

TEST(ObsRegistry, ParserRejectsMalformedLines) {
  std::vector<PrometheusSample> samples;
  EXPECT_FALSE(parse_prometheus_text("cosched_x_total\n", samples));
  EXPECT_FALSE(parse_prometheus_text("cosched_x_total notanumber\n", samples));
  EXPECT_FALSE(parse_prometheus_text("cosched_x{le=\"1\" 3\n", samples));
  EXPECT_TRUE(parse_prometheus_text("# just a comment\n\n", samples));
  EXPECT_TRUE(samples.empty());
}

// Callback metrics — the mechanism the server uses to expose tracer drops,
// cache hit ratios and subscriber counts — must survive a full exposition
// round-trip: render -> parse -> same names, types and values.
TEST(ObsRegistry, CallbackMetricsRoundTripThroughExposition) {
  MetricsRegistry reg;
  double live = 3.0;
  reg.callback("cosched_test_dropped_total", "events dropped", "counter",
               [] { return 12345.0; });
  reg.callback("cosched_test_buffered", "events buffered", "gauge",
               [&live] { return live; });

  std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE cosched_test_dropped_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE cosched_test_buffered gauge"),
            std::string::npos)
      << text;

  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(text, samples)) << text;
  std::map<std::string, double> by_name;
  for (const PrometheusSample& s : samples) by_name[s.name] = s.value;
  EXPECT_EQ(by_name.at("cosched_test_dropped_total"), 12345.0);
  EXPECT_EQ(by_name.at("cosched_test_buffered"), 3.0);

  // Callbacks are pulled at render time: a state change shows up in the
  // next exposition without any re-registration.
  live = 9.0;
  samples.clear();
  ASSERT_TRUE(parse_prometheus_text(reg.render_prometheus(), samples));
  by_name.clear();
  for (const PrometheusSample& s : samples) by_name[s.name] = s.value;
  EXPECT_EQ(by_name.at("cosched_test_buffered"), 9.0);
}

// ---------------------------------------------------------- exemplars

// Each histogram bucket remembers one recent traced observation; newest
// wins on replacement, untraced (trace_id 0) and invalid samples never
// become exemplars. Determinism: a fixed add() sequence yields a fixed
// exemplar set.
TEST(ObsExemplars, NewestTracedObservationWinsPerBucket) {
  Histogram h({1.0, 10.0});
  h.add(0.5);              // untraced: bucket 0 stays exemplar-free
  h.add(5.0, 0xabc);       // bucket 1
  h.add(6.0, 0xdef);       // bucket 1 again: newest replaces
  h.add(-1.0, 0x999);      // invalid: dropped, never an exemplar
  h.add(100.0, 0x123);     // overflow bucket

  const std::vector<Exemplar>& ex = h.exemplars();
  ASSERT_EQ(ex.size(), 3u);  // edges + overflow, parallel to bucket_counts
  EXPECT_FALSE(ex[0].valid);
  ASSERT_TRUE(ex[1].valid);
  EXPECT_EQ(ex[1].trace_id, 0xdefu);
  EXPECT_EQ(ex[1].value, 6.0);
  ASSERT_TRUE(ex[2].valid);
  EXPECT_EQ(ex[2].trace_id, 0x123u);

  // Replacement is deterministic: replaying the sequence reproduces it.
  Histogram replay({1.0, 10.0});
  replay.add(0.5);
  replay.add(5.0, 0xabc);
  replay.add(6.0, 0xdef);
  replay.add(-1.0, 0x999);
  replay.add(100.0, 0x123);
  for (std::size_t i = 0; i < ex.size(); ++i) {
    EXPECT_EQ(ex[i].valid, replay.exemplars()[i].valid);
    EXPECT_EQ(ex[i].trace_id, replay.exemplars()[i].trace_id);
    EXPECT_EQ(ex[i].value, replay.exemplars()[i].value);
  }
}

// Merge carries exemplars: absent slots are adopted, contested slots go to
// the larger value (ties to the larger trace id) — an order-independent
// rule, so a metrics fan-in yields the same exemplar no matter which shard
// merges first.
TEST(ObsExemplars, MergeCarriesExemplarsOrderIndependently) {
  Histogram a({1.0});
  Histogram b({1.0});
  a.add(0.3, 0xa);   // both have a bucket-0 exemplar: larger value wins
  b.add(0.7, 0xb);
  b.add(9.0, 0xbb);  // only b has an overflow exemplar: adopted

  a.merge(b);
  ASSERT_TRUE(a.exemplars()[0].valid);
  EXPECT_EQ(a.exemplars()[0].trace_id, 0xbu);  // 0.7 beats 0.3
  EXPECT_EQ(a.exemplars()[0].value, 0.7);
  ASSERT_TRUE(a.exemplars()[1].valid);
  EXPECT_EQ(a.exemplars()[1].trace_id, 0xbbu);  // absent slot adopted

  // Commutativity: merging the other way lands on the same exemplars.
  Histogram a2({1.0});
  Histogram b2({1.0});
  a2.add(0.3, 0xa);
  b2.add(0.7, 0xb);
  b2.add(9.0, 0xbb);
  b2.merge(a2);
  for (std::size_t i = 0; i < a.exemplars().size(); ++i) {
    EXPECT_EQ(a.exemplars()[i].valid, b2.exemplars()[i].valid);
    EXPECT_EQ(a.exemplars()[i].trace_id, b2.exemplars()[i].trace_id);
    EXPECT_EQ(a.exemplars()[i].value, b2.exemplars()[i].value);
  }

  // Value ties resolve to the larger trace id — still order-independent.
  Histogram t1({1.0});
  Histogram t2({1.0});
  t1.add(0.5, 0x111);
  t2.add(0.5, 0x222);
  t1.merge(t2);
  EXPECT_EQ(t1.exemplars()[0].trace_id, 0x222u);
  Histogram t3({1.0});
  Histogram t4({1.0});
  t3.add(0.5, 0x111);
  t4.add(0.5, 0x222);
  t4.merge(t3);
  EXPECT_EQ(t4.exemplars()[0].trace_id, 0x222u);
}

// Byte-pin of the merged exposition: the fan-in path (per-shard histograms
// -> Histogram::merge -> render_prometheus_histogram) must render exactly
// these bytes, exemplars included. Any drift in the merge rule or the
// OpenMetrics syntax fails this string compare.
TEST(ObsExemplars, MergedHistogramRenderIsBytePinned) {
  Histogram shard0({0.1, 1.0});
  Histogram shard1({0.1, 1.0});
  shard0.add(0.05, 0xaaa);  // bucket 0, loses to shard1's 0.08
  shard0.add(0.5, 0xccc);   // bucket 1, uncontested
  shard1.add(0.08, 0xbbb);
  shard1.add(7.0, 0xddd);   // overflow bucket
  shard0.merge(shard1);

  std::ostringstream out;
  render_prometheus_histogram(out, "cosched_router_request_seconds", shard0,
                              /*with_exemplars=*/true);
  EXPECT_EQ(out.str(),
            "# TYPE cosched_router_request_seconds histogram\n"
            "cosched_router_request_seconds_bucket{le=\"0.1\"} 2"
            " # {trace_id=\"0000000000000bbb\"} 0.08\n"
            "cosched_router_request_seconds_bucket{le=\"1\"} 3"
            " # {trace_id=\"0000000000000ccc\"} 0.5\n"
            "cosched_router_request_seconds_bucket{le=\"+Inf\"} 4"
            " # {trace_id=\"0000000000000ddd\"} 7\n"
            "cosched_router_request_seconds_sum 7.63\n"
            "cosched_router_request_seconds_count 4\n");
}

// The OpenMetrics round-trip: render with exemplars, parse, recover the
// trace ids — and the default render stays byte-identical to pre-exemplar
// output so pre-exemplar consumers see no change.
TEST(ObsExemplars, OpenMetricsRenderRoundTripsThroughTheParser) {
  MetricsRegistry reg;
  HistogramMetric& latency =
      reg.histogram("cosched_test_latency_seconds", "latency", {0.1, 1.0});
  latency.observe(0.05, 0xdeadbeefull);
  latency.observe(0.5);          // untraced: bucket 1 has no exemplar
  latency.observe(5.0, 0x1234ull);

  std::string plain = reg.render_prometheus();
  EXPECT_EQ(plain.find(" # {"), std::string::npos);

  std::string with = reg.render_prometheus(true);
  EXPECT_NE(with.find("le=\"0.1\"} 1 # {trace_id=\"00000000deadbeef\"} 0.05"),
            std::string::npos)
      << with;
  EXPECT_NE(with.find("le=\"+Inf\"} 3 # {trace_id=\"0000000000001234\"} 5"),
            std::string::npos)
      << with;

  // Stripping the exemplar suffixes must reproduce the plain exposition
  // byte for byte — the suffix is the only difference.
  std::string stripped;
  std::istringstream lines(with);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t at = line.find(" # {");
    stripped += at == std::string::npos ? line : line.substr(0, at);
    stripped += '\n';
  }
  EXPECT_EQ(stripped, plain);

  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(with, samples)) << with;
  int exemplars = 0;
  for (const PrometheusSample& s : samples) {
    if (!s.has_exemplar) continue;
    ++exemplars;
    EXPECT_EQ(s.name, "cosched_test_latency_seconds_bucket");
    EXPECT_EQ(s.exemplar_labels.find("trace_id=\""), 0u);
    if (s.labels.find("+Inf") != std::string::npos) {
      EXPECT_EQ(s.exemplar_labels, "trace_id=\"0000000000001234\"");
      EXPECT_EQ(s.exemplar_value, 5.0);
    }
  }
  EXPECT_EQ(exemplars, 2);  // untraced middle bucket exports none

  // A malformed exemplar suffix is a parse error, not a silent skip.
  std::vector<PrometheusSample> bad;
  EXPECT_FALSE(parse_prometheus_text(
      "cosched_x_bucket{le=\"1\"} 2 # {trace_id=\"1\"\n", bad));
  EXPECT_FALSE(parse_prometheus_text(
      "cosched_x_bucket{le=\"1\"} 2 # {trace_id=\"1\"} nan-ish x\n", bad));
}

// Every-bucket-traced round-trip: when each bucket carries an exemplar the
// parser recovers one exemplar per finite bucket plus the overflow, each
// with the value that landed in that bucket. This is the exposition the
// alerting TSDB scrapes, so the parse must not drop or misattribute any.
TEST(ObsExemplars, FullyTracedHistogramRoundTripsEveryExemplar) {
  MetricsRegistry reg;
  HistogramMetric& h =
      reg.histogram("cosched_test_traced_seconds", "traced", {0.1, 1.0});
  h.observe(0.05, 0xa);
  h.observe(0.5, 0xb);
  h.observe(5.0, 0xc);

  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(reg.render_prometheus(true), samples));
  std::map<std::string, std::pair<std::string, double>> by_bucket;
  for (const PrometheusSample& s : samples)
    if (s.has_exemplar)
      by_bucket[s.labels] = {s.exemplar_labels, s.exemplar_value};
  ASSERT_EQ(by_bucket.size(), 3u);
  EXPECT_EQ(by_bucket.at("le=\"0.1\"").first, "trace_id=\"000000000000000a\"");
  EXPECT_EQ(by_bucket.at("le=\"0.1\"").second, 0.05);
  EXPECT_EQ(by_bucket.at("le=\"1\"").first, "trace_id=\"000000000000000b\"");
  EXPECT_EQ(by_bucket.at("le=\"1\"").second, 0.5);
  EXPECT_EQ(by_bucket.at("le=\"+Inf\"").first,
            "trace_id=\"000000000000000c\"");
  EXPECT_EQ(by_bucket.at("le=\"+Inf\"").second, 5.0);
}

TEST(ObsExemplars, TraceIdHexIsZeroPadded16) {
  EXPECT_EQ(trace_id_hex(0x1234), "0000000000001234");
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xffffffffffffffffull), "ffffffffffffffff");
}

TEST(ObsRegistry, CallbacksCanBeReplacedAndUnregistered) {
  MetricsRegistry reg;
  reg.callback("cosched_test_live", "h", "gauge", [] { return 1.0; });
  reg.callback("cosched_test_live", "h", "gauge", [] { return 2.0; });
  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(reg.render_prometheus(), samples));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, 2.0);  // re-registration replaced the closure

  reg.unregister_callback("cosched_test_live");
  EXPECT_EQ(reg.render_prometheus(), "");
  reg.unregister_callback("cosched_test_live");  // idempotent
}

// ------------------------------------ end-to-end replan trace, HA* search

// THE observability acceptance criterion: tracing an online run yields the
// admission -> replan.fresh_solve -> alignment -> commit hierarchy under
// online.replan; a traced HA* solve (the paper's offline co-scheduler, off
// the online path) yields its astar spans and non-zero expansion counters
// in the global registry.
TEST(ObsEndToEnd, ReplanTraceShowsPhaseHierarchyAndAstarCounters) {
  Counter& expansions = MetricsRegistry::global().counter(
      "cosched_astar_expansions_total", "HA*/OA* node expansions");
  Counter& searches = MetricsRegistry::global().counter(
      "cosched_astar_searches_total", "HA*/OA* searches run");
  std::uint64_t expansions_before = expansions.value();
  std::uint64_t searches_before = searches.value();

  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.reset();
  tracer.set_enabled(true);

  TraceSpec spec;
  spec.job_count = 12;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = 11;
  OnlineSchedulerOptions options;
  options.cores = 2;
  options.machines = 3;
  options.admission.every_k = 2;
  OnlineScheduler service(options);
  service.run(generate_trace(spec));
  std::string replan_dump = tracer.dump_text();

  SearchResult solved =
      solve_hastar(testhelpers::random_pe_problem(4, {4}, 4, 11));
  ASSERT_TRUE(solved.found);

  tracer.set_enabled(false);
  std::string dump = tracer.dump_text();
  std::string json = tracer.export_chrome_json();
  tracer.reset();

  // Phase hierarchy, with indentation proving the nesting.
  EXPECT_NE(dump.find("span online.replan"), std::string::npos);
  EXPECT_NE(dump.find("\n  span replan.admission"), std::string::npos);
  EXPECT_NE(dump.find("\n  span replan.fresh_solve"), std::string::npos);
  EXPECT_NE(dump.find("\n  span replan.alignment"), std::string::npos);
  EXPECT_NE(dump.find("\n  span replan.commit"), std::string::npos);
  // No solver search runs on the online path; the direct solve's span is
  // there, at top level.
  EXPECT_EQ(replan_dump.find("astar.search"), std::string::npos)
      << replan_dump;
  EXPECT_NE(dump.find("\nspan astar.search"), std::string::npos) << dump;
  EXPECT_NE(dump.find("variant=HA*"), std::string::npos);

  // Chrome export carries the same span names as complete events.
  for (const char* name :
       {"online.replan", "replan.admission", "replan.fresh_solve",
        "replan.alignment", "replan.commit", "astar.search",
        "astar.expansions"})
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;

  // Non-zero HA* work was recorded in the registry.
  EXPECT_GT(searches.value(), searches_before);
  EXPECT_GT(expansions.value(), expansions_before);
}

// ------------------------------------------- cross-process dump merging

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(ObsTraceMerge, TextNamespacePrefixesEveryNameAndThread) {
  const std::string dump =
      "thread 0\n"
      "  span online.replan @vt=4 trace=9\n"
      "    mark replan.commit\n"
      "  count rpc.queue_depth = 3\n";
  EXPECT_EQ(namespace_trace_text(dump, "shard0/"),
            "thread shard0/0\n"
            "  span shard0/online.replan @vt=4 trace=9\n"
            "    mark shard0/replan.commit\n"
            "  count shard0/rpc.queue_depth = 3\n");
}

TEST(ObsTraceMerge, ChromeNamespaceMovesPidAndLeavesFlowNamesAlone) {
  const std::string json =
      "[{\"name\":\"online.replan\",\"cat\":\"cosched\",\"ph\":\"X\","
      "\"ts\":1,\"pid\":1,\"tid\":0,\"dur\":5},\n"
      "{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":9,"
      "\"ts\":1,\"pid\":1,\"tid\":0}]\n";
  std::string out = namespace_chrome_trace(json, 3, "shard1/");
  EXPECT_NE(out.find("\"name\":\"shard1/online.replan\""), std::string::npos)
      << out;
  // The flow record keeps its name — Perfetto binds flows by
  // (cat, name, id), and an unchanged pair is what draws the cross-process
  // arrow after the merge...
  EXPECT_NE(out.find("{\"name\":\"trace\",\"cat\":\"flow\""),
            std::string::npos)
      << out;
  // ...but both records moved to the target pid.
  EXPECT_EQ(occurrences(out, "\"pid\":3,"), 2u) << out;
  EXPECT_EQ(out.find("\"pid\":1,"), std::string::npos) << out;
}

TEST(ObsTraceMerge, MergedArraysStayOneLoadableArray) {
  const std::string a = "[{\"name\":\"a\",\"pid\":1,\"tid\":0}]\n";
  const std::string b =
      "[{\"name\":\"b\",\"pid\":2,\"tid\":0},\n"
      "{\"name\":\"c\",\"pid\":2,\"tid\":1}]\n";
  std::string merged = merge_chrome_traces({a, b});
  EXPECT_EQ(merged.rfind("[", 0), 0u);
  EXPECT_EQ(merged.substr(merged.size() - 2), "]\n");
  EXPECT_EQ(occurrences(merged, "{\"name\":\""), 3u) << merged;
  for (const char* name : {"\"a\"", "\"b\"", "\"c\""})
    EXPECT_NE(merged.find(std::string("{\"name\":") + name),
              std::string::npos)
        << merged;
  // Empty parts contribute nothing (and leave no stray separators).
  EXPECT_EQ(merge_chrome_traces({"[]\n", a}), a);
}

TEST(ObsTraceMerge, RealExportsSurviveNamespacingAndMerge) {
  // Two dumps from a real tracer: the "router" part untouched, the same
  // export namespaced as a shard — exactly what the TraceDump fan-in does.
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContextScope scope(tracer.make_context(0x77));
  tracer.begin_span("rpc.request");
  tracer.begin_span("online.replan", 2.0);
  tracer.end_span();
  tracer.end_span();
  std::string json = tracer.export_chrome_json();
  std::string merged =
      merge_chrome_traces({json, namespace_chrome_trace(json, 2, "shard0/")});
  // Both copies of each span survive, one per pid, flows unrenamed.
  EXPECT_NE(merged.find("\"name\":\"online.replan\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"shard0/online.replan\""),
            std::string::npos);
  EXPECT_GT(occurrences(merged, "\"pid\":2,"), 0u);
  EXPECT_EQ(occurrences(merged, "\"cat\":\"flow\""),
            2 * occurrences(json, "\"cat\":\"flow\""));
  EXPECT_EQ(merged.find("\"name\":\"shard0/trace\""), std::string::npos);
}


// ------------------------------------------------------------ logger

TEST(ObsLogger, LevelThresholdFiltersBeforeCounting) {
  Logger logger;
  logger.set_level(LogLevel::Warn);
  EXPECT_FALSE(logger.enabled(LogLevel::Debug));
  EXPECT_FALSE(logger.enabled(LogLevel::Info));
  EXPECT_TRUE(logger.enabled(LogLevel::Warn));
  EXPECT_TRUE(logger.enabled(LogLevel::Error));

  logger.log(LogLevel::Debug, "test", "below threshold");
  logger.log(LogLevel::Info, "test", "below threshold");
  logger.log(LogLevel::Warn, "test", "kept");
  logger.log(LogLevel::Error, "test", "kept too");

  EXPECT_EQ(logger.records_total(LogLevel::Debug), 0u);
  EXPECT_EQ(logger.records_total(LogLevel::Info), 0u);
  EXPECT_EQ(logger.records_total(LogLevel::Warn), 1u);
  EXPECT_EQ(logger.records_total(LogLevel::Error), 1u);
}

/// Reads every line of `path`, then removes the file.
std::vector<std::string> read_and_remove(const std::string& path) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::remove(path.c_str());
  return lines;
}

TEST(ObsLogger, RecordsCarryTheCurrentTraceContext) {
  const std::string path = "logger_trace_context_test.log";
  {
    Logger logger;
    logger.set_level(LogLevel::Debug);
    ASSERT_TRUE(logger.set_sink_path(path));
    {
      TraceContextScope scope(Tracer::global().make_context(0xAB));
      logger.log(LogLevel::Info, "rpc", "correlated");
    }
    logger.log(LogLevel::Info, "rpc", "uncorrelated");
    logger.set_sink_path("");  // close, flush
  }
  std::vector<std::string> lines = read_and_remove(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("rpc correlated trace=171"), std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1].find("trace="), std::string::npos) << lines[1];
}

TEST(ObsLogger, RendersLogfmtAndJsonLines) {
  Logger logger;
  LogRecord record;
  record.level = LogLevel::Warn;
  record.component = "router";
  record.message = "submit spilled";
  record.fields = {log_kv("job", std::int64_t{17}), log_kv("tenant", "acme"),
                   log_kv("ok", true)};

  std::string text = logger.render(record);
  EXPECT_NE(text.find(" warn router submit spilled"), std::string::npos)
      << text;
  EXPECT_NE(text.find("job=17"), std::string::npos);
  EXPECT_NE(text.find("tenant=acme"), std::string::npos);
  EXPECT_NE(text.find("ok=true"), std::string::npos);
  EXPECT_EQ(text.find('\n'), std::string::npos);

  logger.set_json(true);
  std::string json = logger.render(record);
  EXPECT_NE(json.find("\"level\":\"warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"component\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"submit spilled\""), std::string::npos);
  EXPECT_NE(json.find("\"job\":17"), std::string::npos);       // unquoted int
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
}

TEST(ObsLogger, SinkAppendsRenderedLines) {
  std::string path = "logger_sink_test.log";
  {
    Logger logger;
    logger.set_level(LogLevel::Debug);
    ASSERT_TRUE(logger.set_sink_path(path));
    logger.log(LogLevel::Info, "sink", "first");
    logger.log(LogLevel::Error, "sink", "second");
    logger.set_sink_path("");  // close, flush
  }
  std::vector<std::string> lines = read_and_remove(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("info sink first"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("error sink second"), std::string::npos);
}

TEST(ObsLogger, ParseLogLevelRoundTrips) {
  LogLevel level = LogLevel::Info;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::Debug);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::Off);
  EXPECT_FALSE(parse_log_level("verbose", level));
  EXPECT_EQ(level, LogLevel::Off);  // untouched on failure
  for (LogLevel l : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                     LogLevel::Error, LogLevel::Off}) {
    LogLevel parsed = LogLevel::Info;
    EXPECT_TRUE(parse_log_level(to_string(l), parsed));
    EXPECT_EQ(parsed, l);
  }
}

TEST(ObsLogger, MacroAndMetricsRideTheGlobalLogger) {
  Logger& logger = Logger::global();
  logger.reset();
  logger.set_level(LogLevel::Info);
  COSCHED_LOG(LogLevel::Debug, "macro", "filtered out");
  COSCHED_LOG(LogLevel::Info, "macro", "kept",
              {log_kv("n", std::int64_t{1})});
  EXPECT_EQ(logger.records_total(LogLevel::Debug), 0u);
  EXPECT_EQ(logger.records_total(LogLevel::Info), 1u);

  std::string page = render_log_metrics();
  EXPECT_NE(page.find("cosched_log_records_total{level=\"info\"} 1"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("cosched_log_records_total{level=\"error\"} 0"),
            std::string::npos);
  logger.reset();
}

// ------------------------------------------------------------ journal

JournalEvent make_event(std::int64_t job, JournalEventKind kind, Real time) {
  JournalEvent event;
  event.job_id = job;
  event.kind = kind;
  event.time = time;
  return event;
}

TEST(ObsJournal, QueryReturnsOneJobInDecisionOrder) {
  DecisionJournal journal(16);
  journal.append(make_event(-1, JournalEventKind::BatchTrigger, 1.0));
  journal.append(make_event(0, JournalEventKind::Admission, 1.0));
  journal.append(make_event(1, JournalEventKind::Admission, 1.0));
  journal.append(make_event(0, JournalEventKind::Placement, 1.0));
  journal.append(make_event(0, JournalEventKind::Completion, 9.0));

  JobTimeline timeline = journal.query(0);
  EXPECT_FALSE(timeline.truncated);
  ASSERT_EQ(timeline.events.size(), 3u);
  EXPECT_EQ(timeline.events[0].kind, JournalEventKind::Admission);
  EXPECT_EQ(timeline.events[1].kind, JournalEventKind::Placement);
  EXPECT_EQ(timeline.events[2].kind, JournalEventKind::Completion);
  for (std::size_t i = 1; i < timeline.events.size(); ++i)
    EXPECT_GT(timeline.events[i].seq, timeline.events[i - 1].seq);

  EXPECT_TRUE(journal.query(42).events.empty());
  EXPECT_FALSE(journal.query(42).truncated);  // nothing dropped yet
}

TEST(ObsJournal, OverflowEvictsOldestFirstWithExactAccounting) {
  DecisionJournal journal(4);
  for (int i = 0; i < 10; ++i)
    journal.append(make_event(i, JournalEventKind::Admission,
                              static_cast<Real>(i)));
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.dropped_total(), 6u);
  EXPECT_EQ(journal.events_total(JournalEventKind::Admission), 10u);

  std::vector<JournalEvent> all = journal.tail(SIZE_MAX);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].job_id, static_cast<std::int64_t>(6 + i));  // oldest gone
    EXPECT_EQ(all[i].seq, 6 + i);
  }
  EXPECT_EQ(journal.tail(2).size(), 2u);
  EXPECT_EQ(journal.tail(2).front().job_id, 8);  // newest-N, ascending
}

TEST(ObsJournal, EvictedJobAnswersTruncatedNotError) {
  DecisionJournal journal(3);
  journal.append(make_event(0, JournalEventKind::Admission, 1.0));
  journal.append(make_event(0, JournalEventKind::Placement, 1.0));
  journal.append(make_event(1, JournalEventKind::Admission, 2.0));
  journal.append(make_event(1, JournalEventKind::Placement, 2.0));
  journal.append(make_event(0, JournalEventKind::Completion, 5.0));
  // Ring now holds [1/Admission, 1/Placement, 0/Completion]; job 0's
  // admission and placement were evicted.
  ASSERT_EQ(journal.dropped_total(), 2u);

  JobTimeline rolled = journal.query(0);
  EXPECT_TRUE(rolled.truncated);  // history rolled over, still well-formed
  ASSERT_EQ(rolled.events.size(), 1u);
  EXPECT_EQ(rolled.events[0].kind, JournalEventKind::Completion);

  JobTimeline intact = journal.query(1);
  EXPECT_FALSE(intact.truncated);  // starts at its admission
  EXPECT_EQ(intact.events.size(), 2u);

  JobTimeline vanished = journal.query(99);
  EXPECT_TRUE(vanished.truncated);  // maybe evicted: cannot prove absence
  EXPECT_TRUE(vanished.events.empty());
}

TEST(ObsJournal, ShrinkingCapacityEvictsImmediately) {
  DecisionJournal journal(8);
  for (int i = 0; i < 8; ++i)
    journal.append(make_event(i, JournalEventKind::Admission, 0.0));
  journal.set_capacity(3);
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.dropped_total(), 5u);
  EXPECT_EQ(journal.tail(SIZE_MAX).front().job_id, 5);

  journal.clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.dropped_total(), 0u);
  journal.append(make_event(0, JournalEventKind::Admission, 0.0));
  EXPECT_GE(journal.tail(1).front().seq, 8u);  // seq keeps climbing
}

TEST(ObsJournal, RenderAndMetricsExposition) {
  DecisionJournal journal(8);
  JournalEvent event = make_event(7, JournalEventKind::Placement, 3.25);
  event.trace_id = 0x2A;
  event.policy = "solver";
  event.machine = 2;
  event.candidates = 4;
  event.degradation_delta = 0.125;
  event.co_runners = {3, 5};
  event.detail = "batch=2";
  journal.append(event);

  std::string line = render_journal_event(journal.tail(1).front());
  EXPECT_NE(line.find("kind=placement"), std::string::npos) << line;
  EXPECT_NE(line.find("job=7"), std::string::npos);
  EXPECT_NE(line.find("policy=solver"), std::string::npos);
  EXPECT_NE(line.find("machine=2"), std::string::npos);
  EXPECT_NE(line.find("co_runners=[3,5]"), std::string::npos);
  EXPECT_NE(line.find("batch=2"), std::string::npos);

  std::string page = render_journal_metrics(journal);
  EXPECT_NE(page.find("cosched_journal_events_total{kind=\"placement\"} 1"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("cosched_journal_events_total{kind=\"migration\"} 0"),
            std::string::npos);
  EXPECT_NE(page.find("cosched_journal_events_dropped_total 0"),
            std::string::npos);
}


}  // namespace
}  // namespace cosched
