// rpc_soak: sustained-load soak of the observability stack.
//
// Runs a CoschedServer under continuous loopback traffic with tracing
// enabled the way a long-lived deployment would run it — a small
// fixed-capacity ring per thread, 1-in-N head-based trace sampling and an
// always-keep override for replan commits — plus one streaming-telemetry
// subscriber writing every received frame to a capture file.
//
// The point is not a number but a set of invariants that must hold after
// minutes of load (CI runs ~30 s, the default is 8 s):
//   1. the tracer's buffered event count plateaus at the ring capacity
//      instead of growing without bound;
//   2. /metrics reports the overwritten events
//      (cosched_tracer_dropped_events_total > 0) and sampling did shed
//      traces (cosched_tracer_sampled_out_traces_total > 0);
//   3. always-keep span categories (replan.commit) are still present in
//      the buffers despite the sampling;
//   4. the telemetry stream delivered frames throughout;
//   5. tail sampling: after a warmup measuring the replan-duration p95, a
//      "keep replans slower than p95" tail policy is armed on top of the
//      1-in-N head sampler. Every above-threshold replan must be retained
//      (over_threshold_seen == over_threshold_kept), the pending window
//      must stay bounded, the drop counters must be monotone across
//      samples, and /metrics must expose at least one replan-duration
//      exemplar whose trace_id belongs to a tail-retained trace;
//   6. the OTLP JSON export (traces + metrics) is written and non-empty.
// Any violated invariant makes the exit status nonzero.
//
//   ./rpc_soak --seconds 30 --ring 4096 --sample-every 64
//              --capture traces/soak_telemetry.jsonl --otlp-out traces/otlp
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/http.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/otlp.hpp"
#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "online/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

namespace {

using namespace cosched;

std::atomic<bool> g_stop{false};

void drive_client(std::uint16_t port, std::uint64_t seed,
                  std::uint64_t* requests) {
  ClientOptions options;
  options.port = port;
  CoschedClient client(options);
  std::uint64_t round = 0;
  std::int64_t last_job = -1;
  while (!g_stop.load(std::memory_order_acquire)) {
    TraceSpec spec;
    spec.job_count = 32;
    spec.parallel_fraction = 0.2;
    spec.mean_interarrival = 4.0;
    spec.work_lo = 2.0;
    spec.work_hi = 8.0;
    spec.seed = seed + round;
    // Arrival times must keep climbing across rounds: restarting at zero
    // would pile every round's jobs onto "now", the fleet would never
    // drain, and replans would grow until they throttle the soak.
    const Real offset = static_cast<Real>(round) * 32.0 * 4.0;
    ++round;
    for (TraceJob job : generate_trace(spec).jobs) {
      if (g_stop.load(std::memory_order_acquire)) return;
      job.arrival_time += offset;
      SubmitJobResponse reply;
      if (client.submit_job(job, reply).ok()) {
        ++*requests;
        last_job = reply.job_id;
      }
      // Pace the submit stream: a closed-loop submitter would pin the
      // scheduler thread in replans and starve every other request class
      // of the FIFO command queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  (void)last_job;
}

/// Read-mostly load: hammers query_job_status as fast as the transport
/// allows. Pollers are what actually fill the worker-thread rings — the
/// submit path is solver-bound and tops out at tens of requests a second.
void drive_poller(std::uint16_t port, std::uint64_t* requests) {
  ClientOptions options;
  options.port = port;
  CoschedClient client(options);
  while (!g_stop.load(std::memory_order_acquire)) {
    JobStatusResponse status;
    if (client.query_job_status(0, status).ok()) ++*requests;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Drains telemetry frames until the soak stops, appending one JSON line
/// per frame to `capture` (CI uploads the file as an artifact).
void drive_subscriber(std::uint16_t port, const std::string& capture,
                      std::uint64_t* frames, std::uint64_t* spans) {
  ClientOptions options;
  options.port = port;
  CoschedClient streamer(options);
  TelemetrySubscribeRequest subscribe;
  subscribe.interval_ms = 100;
  subscribe.max_spans_per_frame = 512;
  TelemetrySubscribeAck ack;
  RpcError error = streamer.subscribe_telemetry(subscribe, ack);
  if (!error.ok()) {
    std::cerr << "rpc_soak: subscribe: " << error.describe() << "\n";
    return;
  }

  std::ofstream out;
  if (!capture.empty()) {
    std::error_code ec;
    std::filesystem::path parent = std::filesystem::path(capture).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    out.open(capture);
  }

  auto write_frame = [&](const TelemetryFrame& frame) {
    ++*frames;
    *spans += frame.spans.size();
    if (!out) return;
    out << "{\"frame_seq\":" << frame.frame_seq
        << ",\"last\":" << (frame.last ? "true" : "false")
        << ",\"dropped_spans\":" << frame.dropped_spans << ",\"metrics\":{";
    for (std::size_t i = 0; i < frame.metrics.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << json_escape(frame.metrics[i].name)
          << "\":" << frame.metrics[i].value;
    }
    out << "},\"spans\":[";
    for (std::size_t i = 0; i < frame.spans.size(); ++i) {
      const TelemetrySpanSample& s = frame.spans[i];
      if (i > 0) out << ",";
      out << "{\"name\":\"" << json_escape(s.name)
          << "\",\"phase\":" << static_cast<int>(s.phase)
          << ",\"trace_id\":" << s.trace_id << ",\"seq\":" << s.seq << "}";
    }
    out << "]}\n";
  };

  while (!g_stop.load(std::memory_order_acquire)) {
    TelemetryFrame frame;
    RpcError frame_error = streamer.read_telemetry_frame(frame, 1.0);
    if (!frame_error.ok()) {
      if (streamer.streaming()) continue;  // timeout slice, keep waiting
      return;                              // stream is gone
    }
    write_frame(frame);
    if (frame.last) return;
  }

  // Polite unsubscribe: ask for the final frame and drain until it lands.
  if (streamer.stop_telemetry().ok()) {
    for (int i = 0; i < 50; ++i) {
      TelemetryFrame frame;
      if (!streamer.read_telemetry_frame(frame, 1.0).ok()) break;
      write_frame(frame);
      if (frame.last) break;
    }
  }
}

bool check(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS  " : "FAIL  ") << what << "\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  double seconds = static_cast<double>(args.get_int("seconds", 8));
  // Ring sized to still overflow under 1-in-64 head sampling: the point of
  // the soak is overwrite pressure, not headroom.
  std::int64_t ring = args.get_int("ring", 384);
  std::int64_t sample_every = args.get_int("sample-every", 64);
  std::int64_t client_count = args.get_int("clients", 2);
  std::int64_t poller_count = args.get_int("pollers", 3);
  std::int64_t tail_window = args.get_int("tail-window", 64);
  std::string capture =
      args.get_string("capture", "traces/soak_telemetry.jsonl");
  std::string otlp_out = args.get_string("otlp-out", "traces/otlp");

  print_experiment_header(
      "rpc_soak",
      "long-lived observability soak: bounded tracer rings, head sampling "
      "with a p95-latency tail policy on top, streaming telemetry, OTLP "
      "export");

  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_max_events_per_thread(static_cast<std::size_t>(ring));
  tracer.set_sample_every(static_cast<std::uint64_t>(sample_every));
  tracer.set_always_keep({"replan.commit"});

  ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads =
      static_cast<std::size_t>(client_count + poller_count) +
      1;  // +1 for the subscriber
  server_options.service.wall_clock = false;
  server_options.service.scheduler.cores = 4;
  server_options.service.scheduler.machines = 8;
  // Replan every other admission: enough commit-span traffic for the
  // always-keep override to matter without pinning the scheduler thread.
  server_options.service.scheduler.admission.every_k = 2;
  server_options.service.scheduler.cache_compaction_jobs = 16;

  CoschedServer server(server_options);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "rpc_soak: " << error << "\n";
    return 1;
  }

  std::vector<std::uint64_t> requests(
      static_cast<std::size_t>(client_count + poller_count), 0);
  std::uint64_t frames = 0;
  std::uint64_t streamed_spans = 0;
  std::vector<std::thread> threads;
  threads.emplace_back(drive_subscriber, server.port(), capture, &frames,
                       &streamed_spans);
  for (std::size_t c = 0; c < static_cast<std::size_t>(client_count); ++c)
    threads.emplace_back(drive_client, server.port(), 9000 + 17 * c,
                         &requests[c]);
  for (std::size_t c = 0; c < static_cast<std::size_t>(poller_count); ++c)
    threads.emplace_back(drive_poller, server.port(),
                         &requests[static_cast<std::size_t>(client_count) + c]);

  // ---- warmup: measure the replan-duration p95, then arm the tail ------
  // The tail policy is configured *from measured data* — "keep every replan
  // slower than the warmup p95" — which is how a deployment would pick the
  // threshold. Arming after warmup also means the survival invariant below
  // only covers spans the policy actually saw.
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds * 0.3));
  Histogram warmup_replans =
      MetricsRegistry::global()
          .histogram(kReplanDurationMetricName, kReplanDurationMetricHelp,
                     replan_duration_metric_edges())
          .snapshot();
  Real p95_seconds = warmup_replans.quantile(0.95);
  // No replans yet (cold warmup) degrades to a 1 us threshold: every replan
  // is "slow", which keeps the survival invariant meaningful either way.
  Real threshold_us = p95_seconds > 0.0 ? p95_seconds * 1e6 : 1.0;
  {
    TailPolicy slow_replans;
    slow_replans.name = "slow-replans";
    slow_replans.span_prefix = "online.replan";
    slow_replans.min_duration_us = threshold_us;
    // A top-K policy on the request firehose exercises the pending window
    // (latency keeps are immediate and never park spans): requests queue up
    // to one window and get their verdict at the window boundary.
    TailPolicy top_requests;
    top_requests.name = "top-requests";
    top_requests.span_prefix = "rpc.request";
    top_requests.top_k = 4;
    TailSamplerOptions tail_options;
    tail_options.window_spans = static_cast<std::size_t>(tail_window);
    TailSampler::global().configure(
        {std::move(slow_replans), std::move(top_requests)}, tail_options);
  }

  // Mid-soak and end-of-soak samples of the buffered event count: once
  // every active ring is full the count must plateau. The tail-sampler
  // stats are sampled at the same two points for the monotonicity and
  // bounded-pending invariants.
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds * 0.3));
  std::uint64_t events_mid = tracer.event_count();
  TailSamplerStats tail_mid = TailSampler::global().stats();
  std::size_t tail_pending_mid = TailSampler::global().pending();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds * 0.4));
  std::uint64_t events_end = tracer.event_count();
  TailSamplerStats tail_end = TailSampler::global().stats();
  std::size_t tail_pending_end = TailSampler::global().pending();

  std::string exposition =
      http_get(server_options.host, server.http_port(), "/metrics");

  g_stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.stop();

  std::uint64_t total_requests = 0;
  for (std::uint64_t r : requests) total_requests += r;

  double dropped_metric = -1.0;
  double sampled_out_metric = -1.0;
  std::vector<PrometheusSample> samples;
  if (parse_prometheus_text(exposition, samples)) {
    for (const PrometheusSample& s : samples) {
      if (s.name == "cosched_tracer_dropped_events_total")
        dropped_metric = s.value;
      if (s.name == "cosched_tracer_sampled_out_traces_total")
        sampled_out_metric = s.value;
    }
  }

  Tracer::TelemetryBatch commits = tracer.collect_since(0, "replan.commit", 0);

  // Tail-sampler verdicts: the per-policy accounting for the survival
  // invariant, and the /metrics exemplars cross-checked against the set of
  // retained traces.
  TailSampler& tail = TailSampler::global();
  tail.flush();  // park nothing: give window-parked spans their verdict
  TailPolicyStats slow_replans_stats;
  for (const TailPolicyStats& p : tail.policy_stats())
    if (p.policy == "slow-replans") slow_replans_stats = p;

  std::uint64_t replan_exemplars = 0;
  std::uint64_t retained_exemplars = 0;
  for (const PrometheusSample& s : samples) {
    if (s.name != "cosched_replan_duration_seconds_bucket" || !s.has_exemplar)
      continue;
    ++replan_exemplars;
    // exemplar_labels is `trace_id="<16 hex>"`; recover the id and ask
    // the tail sampler whether that trace was retained.
    std::size_t open = s.exemplar_labels.find('"');
    std::size_t close = s.exemplar_labels.rfind('"');
    if (open == std::string::npos || close <= open) continue;
    std::uint64_t id = std::strtoull(
        s.exemplar_labels.substr(open + 1, close - open - 1).c_str(), nullptr,
        16);
    if (tail.trace_retained(id)) ++retained_exemplars;
  }

  // OTLP export: the CI artifact and the collector-compatibility check.
  std::vector<std::string> otlp_written;
  bool otlp_ok = false;
  if (!otlp_out.empty())
    otlp_ok = otlp_write_files(otlp_out, tracer, MetricsRegistry::global(),
                               &tail, {}, &otlp_written);

  std::cout << "requests ok          " << total_requests << "\n"
            << "telemetry frames     " << frames << "\n"
            << "streamed spans       " << streamed_spans << "\n"
            << "events mid/end       " << events_mid << " / " << events_end
            << "\n"
            << "dropped events       " << tracer.dropped_events() << "\n"
            << "sampled-out traces   " << tracer.sampled_out_traces() << "\n"
            << "replan p95 (warmup)  " << TextTable::fmt(p95_seconds * 1e6)
            << " us\n"
            << "tail considered      " << tail_end.considered << "\n"
            << "tail kept/dropped    " << tail_end.kept() << " / "
            << tail_end.dropped << "\n"
            << "tail slow replans    " << slow_replans_stats.over_threshold_kept
            << " kept of " << slow_replans_stats.over_threshold_seen
            << " over threshold\n"
            << "replan exemplars     " << replan_exemplars << " ("
            << retained_exemplars << " tail-retained)\n"
            << "capture file         " << capture << "\n";
  for (const std::string& path : otlp_written)
    std::cout << "otlp export          " << path << "\n";
  std::cout << "\n";

  // The ring bound: at most `ring` events per registered thread buffer.
  // Threads here: main, accept, workers, scheduler, HTTP, clients — 16 is
  // a generous process-wide ceiling.
  const std::uint64_t hard_cap = static_cast<std::uint64_t>(ring) * 16;

  bool ok = true;
  ok &= check(total_requests > 0, "loopback traffic flowed");
  ok &= check(events_end <= hard_cap,
              "event count bounded by ring capacity x threads");
  ok &= check(events_end <= events_mid + static_cast<std::uint64_t>(ring),
              "event count plateaued (grew < one ring in the last 40%)");
  ok &= check(tracer.dropped_events() > 0,
              "ring overwrites happened under sustained load");
  ok &= check(dropped_metric > 0.0,
              "/metrics reports cosched_tracer_dropped_events_total > 0");
  ok &= check(sampled_out_metric > 0.0,
              "/metrics reports cosched_tracer_sampled_out_traces_total > 0");
  ok &= check(!commits.events.empty(),
              "always-keep replan.commit spans survived sampling");
  ok &= check(frames > 0, "telemetry stream delivered frames");
  ok &= check(streamed_spans > 0, "telemetry frames carried span samples");

  // ---- tail-sampling invariants ----------------------------------------
  ok &= check(tail_end.considered > 0, "tail sampler saw completed spans");
  ok &= check(slow_replans_stats.over_threshold_seen > 0,
              "replans slower than the warmup p95 occurred");
  ok &= check(slow_replans_stats.over_threshold_kept ==
                  slow_replans_stats.over_threshold_seen,
              "every above-threshold replan trace was retained (100% "
              "slow-span survival)");
  ok &= check(tail_pending_mid <= static_cast<std::size_t>(tail_window) &&
                  tail_pending_end <= static_cast<std::size_t>(tail_window),
              "tail pending window stayed bounded (<= window size)");
  ok &= check(tail.retained() <= TailSamplerOptions{}.max_retained_spans,
              "tail retained ring stayed bounded");
  ok &= check(tail_end.considered >= tail_mid.considered &&
                  tail_end.dropped >= tail_mid.dropped &&
                  tail_end.kept() >= tail_mid.kept(),
              "tail considered/kept/dropped counters are monotone");
  ok &= check(replan_exemplars > 0,
              "/metrics exposes replan-duration exemplars");
  ok &= check(retained_exemplars > 0,
              "at least one exemplar trace_id matches a tail-retained trace");
  if (!otlp_out.empty()) {
    ok &= check(otlp_ok && otlp_written.size() == 2,
                "OTLP trace + metric JSON export written");
    for (const std::string& path : otlp_written) {
      std::error_code ec;
      std::uintmax_t size = std::filesystem::file_size(path, ec);
      ok &= check(!ec && size > 2, "OTLP export non-empty: " + path);
    }
  }

  TailSampler::global().configure({}, {});  // deactivate
  tracer.set_enabled(false);
  return ok ? 0 : 1;
}
