// Tests for the continuous-observability layer (ISSUE 4): the tracer's
// bounded per-thread rings and head-based trace sampling, cursor-based
// telemetry collection, the envelope trace_id, the SubscribeTelemetry
// wire codecs, and the end-to-end acceptance criterion — a client-supplied
// trace id shows up on the server's replan phase spans, solver search
// spans, the Chrome export's flow events and the streamed telemetry frames.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "online/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc_test_helpers.hpp"

namespace cosched {
namespace {

/// Restores the global tracer to its out-of-the-box state; the tracer is a
/// process singleton, so every test that touches it cleans up through this.
void reset_global_tracer() {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.set_max_events_per_thread(65536);
  tracer.set_sample_every(1);
  tracer.set_always_keep({});
  Tracer::clear_current_context();
  tracer.reset();
}

// ------------------------------------------------------- bounded rings

TEST(TelemetryRing, EventCountPlateausAndDropsAreCounted) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_events_per_thread(64);

  for (int i = 0; i < 200; ++i) tracer.instant("tick");
  EXPECT_EQ(tracer.event_count(), 64u);  // plateau at the ring capacity
  EXPECT_EQ(tracer.dropped_events(), 200u - 64u);

  // Sustained load: the plateau holds, only the drop counter moves.
  for (int i = 0; i < 100; ++i) tracer.instant("tick");
  EXPECT_EQ(tracer.event_count(), 64u);
  EXPECT_EQ(tracer.dropped_events(), 300u - 64u);

  // The ring keeps the *newest* events: the survivors are the top of the
  // sequence range, oldest-first.
  Tracer::TelemetryBatch batch = tracer.collect_since(0, "", 0);
  ASSERT_EQ(batch.events.size(), 64u);
  EXPECT_EQ(batch.events.front().seq, 300u - 64u);
  EXPECT_EQ(batch.events.back().seq, 299u);

  // reset() empties the ring and zeroes drops, but the sequence counter
  // keeps climbing so telemetry cursors stay monotonic.
  std::uint64_t seq_before = tracer.current_seq();
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  tracer.instant("after");
  EXPECT_EQ(tracer.current_seq(), seq_before + 1);

  // Capacity 0 clamps to 1 instead of dividing by zero somewhere dark.
  tracer.set_max_events_per_thread(0);
  EXPECT_EQ(tracer.max_events_per_thread(), 1u);
}

// -------------------------------------------------- head-based sampling

TEST(TelemetrySampling, DeterministicPerTraceDecisionsAtTheConfiguredRate) {
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

TEST(TelemetrySampling, SampledOutTracesRecordNothingExceptAlwaysKeep) {
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

// ---------------------------------------------- cursor-based collection

TEST(TelemetryCollect, CursorPrefixFilterAndDropOldest) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("alpha.one");
  tracer.instant("beta.one");
  tracer.instant("alpha.two");
  tracer.instant("beta.two");
  tracer.instant("alpha.three");

  // Prefix filter matches span names only, ascending by seq.
  Tracer::TelemetryBatch alphas = tracer.collect_since(0, "alpha", 0);
  ASSERT_EQ(alphas.events.size(), 3u);
  EXPECT_EQ(alphas.events[0].name, "alpha.one");
  EXPECT_EQ(alphas.events[2].name, "alpha.three");
  EXPECT_EQ(alphas.dropped, 0u);
  EXPECT_EQ(alphas.next_cursor, alphas.events.back().seq + 1);

  // Drop-oldest backpressure: a cap keeps the newest samples and counts
  // the shed backlog.
  Tracer::TelemetryBatch capped = tracer.collect_since(0, "", 3);
  ASSERT_EQ(capped.events.size(), 3u);
  EXPECT_EQ(capped.dropped, 2u);
  EXPECT_EQ(capped.events.front().name, "alpha.two");

  // Resuming from the cursor yields nothing new until new events arrive.
  Tracer::TelemetryBatch empty =
      tracer.collect_since(alphas.next_cursor, "alpha", 0);
  EXPECT_TRUE(empty.events.empty());
  tracer.instant("alpha.four");
  Tracer::TelemetryBatch fresh =
      tracer.collect_since(alphas.next_cursor, "alpha", 0);
  ASSERT_EQ(fresh.events.size(), 1u);
  EXPECT_EQ(fresh.events[0].name, "alpha.four");
}

// ------------------------------------------------------------------ wire

TEST(TelemetryWire, EnvelopeTraceIdRoundTrips) {
  RequestEnvelope request;
  request.type = MessageType::SubmitJob;
  request.request_id = 5;
  request.trace_id = 0xABCDEF;
  RequestEnvelope decoded;
  ASSERT_TRUE(decode_request(encode_request(request), decoded));
  EXPECT_EQ(decoded.trace_id, 0xABCDEFu);

  ResponseEnvelope response;
  response.request_id = 5;
  response.trace_id = 0x1234;
  ResponseEnvelope out;
  ASSERT_TRUE(decode_response(encode_response(response), out));
  EXPECT_EQ(out.trace_id, 0x1234u);
}

TEST(TelemetryWire, SubscribeCodecsRoundTrip) {
  TelemetrySubscribeRequest request;
  request.interval_ms = 25;
  request.max_frames = 7;
  request.max_spans_per_frame = 128;
  request.prefix = "replan.";
  WireWriter request_writer;
  encode_telemetry_subscribe_request(request_writer, request);
  std::vector<std::uint8_t> bytes = request_writer.take();
  TelemetrySubscribeRequest request_out;
  {
    WireReader r(bytes);
    ASSERT_TRUE(decode_telemetry_subscribe_request(r, request_out));
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(request_out.interval_ms, 25u);
  EXPECT_EQ(request_out.max_frames, 7u);
  EXPECT_EQ(request_out.max_spans_per_frame, 128u);
  EXPECT_EQ(request_out.prefix, "replan.");

  TelemetryFrame frame;
  frame.frame_seq = 3;
  frame.last = true;
  frame.dropped_spans = 11;
  frame.metrics.push_back({"cosched_cache_hits_total", 42.0});
  TelemetrySpanSample span;
  span.name = "replan.commit";
  span.phase = static_cast<std::uint8_t>(Tracer::Phase::Begin);
  span.trace_id = 0x77;
  span.seq = 900;
  span.tid = 2;
  span.depth = 1;
  span.wall_us = 12.5;
  span.virtual_time = 3.0;
  span.args = "jobs=4";
  frame.spans.push_back(span);

  WireWriter frame_writer;
  encode_telemetry_frame(frame_writer, frame);
  bytes = frame_writer.take();
  TelemetryFrame frame_out;
  {
    WireReader r(bytes);
    ASSERT_TRUE(decode_telemetry_frame(r, frame_out));
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(frame_out.frame_seq, 3u);
  EXPECT_TRUE(frame_out.last);
  EXPECT_EQ(frame_out.dropped_spans, 11u);
  ASSERT_EQ(frame_out.metrics.size(), 1u);
  EXPECT_EQ(frame_out.metrics[0].name, "cosched_cache_hits_total");
  ASSERT_EQ(frame_out.spans.size(), 1u);
  EXPECT_EQ(frame_out.spans[0].name, "replan.commit");
  EXPECT_EQ(frame_out.spans[0].trace_id, 0x77u);
  EXPECT_EQ(frame_out.spans[0].args, "jobs=4");

  // A phase byte outside the Tracer::Phase range is malformed, not UB.
  frame.spans[0].phase = 200;
  WireWriter bad_writer;
  encode_telemetry_frame(bad_writer, frame);
  bytes = bad_writer.take();
  {
    WireReader r(bytes);
    EXPECT_FALSE(decode_telemetry_frame(r, frame_out));
  }
}

// The frame-level sampling-mode label is part of every frame: it round
// trips, and a frame without it is rejected rather than decoded with an
// empty label.
TEST(TelemetryWire, FrameWithoutSamplingModeIsRejected) {
  TelemetryFrame frame;
  frame.frame_seq = 9;
  frame.sampling_mode = "head:1-in-64,tail(slow-replans)";

  WireWriter writer;
  encode_telemetry_frame(writer, frame);
  std::vector<std::uint8_t> bytes = writer.take();
  TelemetryFrame out;
  {
    WireReader r(bytes);
    ASSERT_TRUE(decode_telemetry_frame(r, out));
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(out.sampling_mode, "head:1-in-64,tail(slow-replans)");

  // Drop the label (u32 length + bytes): the frame ends after its spans.
  bytes.resize(bytes.size() - 4 - frame.sampling_mode.size());
  WireReader r(bytes);
  EXPECT_FALSE(decode_telemetry_frame(r, out));
}

// ----------------------------------------------- end-to-end correlation

ServerOptions telemetry_server_options() {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.enable_http = false;
  options.service.wall_clock = false;
  options.service.scheduler.cores = 2;
  options.service.scheduler.machines = 3;
  options.service.scheduler.admission.every_k = 2;
  options.service.scheduler.log_process_finish = false;
  return options;
}

WorkloadTrace telemetry_jobs(std::uint64_t seed, std::int32_t jobs = 8) {
  TraceSpec spec;
  spec.job_count = jobs;
  spec.mean_interarrival = 2.0;
  spec.work_lo = 4.0;
  spec.work_hi = 12.0;
  spec.parallel_fraction = 0.2;
  spec.max_parallel_processes = 2;
  spec.seed = seed;
  return generate_trace(spec);
}

// THE acceptance criterion: one client-supplied trace id is visible on the
// replan phase spans, the solver's search spans, the Chrome export's flow
// events and the telemetry stream's span samples.
TEST(TelemetryEndToEnd, ClientTraceIdReachesReplanSolverAndStream) {
  reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);

  CoschedServer server(telemetry_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  constexpr std::uint64_t kTraceId = 777001;

  // A second connection subscribes before the traffic, so the stream's
  // cursor starts ahead of the correlated spans.
  ClientOptions stream_options;
  stream_options.port = server.port();
  CoschedClient streamer(stream_options);
  TelemetrySubscribeRequest subscribe;
  subscribe.interval_ms = 25;
  subscribe.max_spans_per_frame = 512;
  TelemetrySubscribeAck ack;
  RpcError stream_error = streamer.subscribe_telemetry(subscribe, ack);
  ASSERT_TRUE(stream_error.ok()) << stream_error.describe();
  EXPECT_EQ(ack.interval_ms, 25u);
  EXPECT_EQ(ack.max_spans_per_frame, 512u);

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  client.set_trace_id(kTraceId);
  for (const TraceJob& job : telemetry_jobs(41).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }
  EXPECT_EQ(client.last_trace_id(), kTraceId);  // the server echoes the id

  // Server-side spans: replan phases and solver searches carry the id.
  TraceDumpResponse dump;
  ASSERT_TRUE(client.trace_dump(dump).ok());
  const std::string tag = " trace=777001";
  for (const char* name :
       {"span online.replan", "span replan.admission", "span replan.commit",
        "span astar.search"}) {
    std::size_t at = dump.text.find(name);
    ASSERT_NE(at, std::string::npos) << name << "\n" << dump.text;
    std::size_t eol = dump.text.find('\n', at);
    EXPECT_NE(dump.text.substr(at, eol - at).find(tag), std::string::npos)
        << name << " line lacks the client trace id:\n"
        << dump.text.substr(at, eol - at);
  }
  // Chrome export: spans stamped with the id plus flow events linking the
  // RPC request to the solver work for Perfetto's arrows.
  EXPECT_NE(dump.chrome_json.find("\"trace_id\":777001"), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"bp\":\"e\""), std::string::npos);

  // The stream: frames carry metrics snapshots and span samples stamped
  // with the client's trace id.
  bool saw_trace_span = false;
  bool saw_metric = false;
  bool saw_mode = false;
  for (int i = 0; i < 80 && !(saw_trace_span && saw_metric); ++i) {
    TelemetryFrame frame;
    RpcError frame_error = streamer.read_telemetry_frame(frame, 2.0);
    ASSERT_TRUE(frame_error.ok()) << frame_error.describe();
    for (const TelemetryMetricSample& m : frame.metrics)
      if (m.name.rfind("cosched_", 0) == 0) saw_metric = true;
    for (const TelemetrySpanSample& s : frame.spans)
      if (s.trace_id == kTraceId) saw_trace_span = true;
    // Frames advertise the active sampling regime alongside the data.
    if (frame.sampling_mode.rfind("head:", 0) == 0) saw_mode = true;
    ASSERT_FALSE(frame.last);
  }
  EXPECT_TRUE(saw_metric);
  EXPECT_TRUE(saw_trace_span);
  EXPECT_TRUE(saw_mode);

  // Polite unsubscribe: the server answers with one final frame marked
  // `last`, then the stream is down.
  ASSERT_TRUE(streamer.stop_telemetry().ok());
  bool got_last = false;
  for (int i = 0; i < 80 && !got_last; ++i) {
    TelemetryFrame frame;
    RpcError frame_error = streamer.read_telemetry_frame(frame, 2.0);
    ASSERT_TRUE(frame_error.ok()) << frame_error.describe();
    got_last = frame.last;
  }
  EXPECT_TRUE(got_last);
  EXPECT_FALSE(streamer.streaming());

  ServerStats stats = server.stats();
  EXPECT_GT(stats.telemetry_frames, 0u);

  server.stop();
  reset_global_tracer();
}

TEST(TelemetryStream, PrefixFilterAndMaxFramesEndTheStream) {
  reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);

  CoschedServer server(telemetry_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  ClientOptions stream_options;
  stream_options.port = server.port();
  CoschedClient streamer(stream_options);
  TelemetrySubscribeRequest subscribe;
  subscribe.interval_ms = 25;
  subscribe.max_frames = 6;
  subscribe.prefix = "rpc.";
  TelemetrySubscribeAck ack;
  ASSERT_TRUE(streamer.subscribe_telemetry(subscribe, ack).ok());

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  for (const TraceJob& job : telemetry_jobs(42, 4).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  std::size_t frames = 0;
  bool saw_rpc_span = false;
  while (true) {
    TelemetryFrame frame;
    RpcError frame_error = streamer.read_telemetry_frame(frame, 2.0);
    ASSERT_TRUE(frame_error.ok()) << frame_error.describe();
    ++frames;
    for (const TelemetrySpanSample& s : frame.spans) {
      EXPECT_EQ(s.name.rfind("rpc.", 0), 0u) << s.name;
      saw_rpc_span = true;
    }
    if (frame.last) break;
    ASSERT_LE(frames, 6u);
  }
  EXPECT_EQ(frames, 6u);  // max_frames honoured, final frame marked last
  EXPECT_TRUE(saw_rpc_span);
  EXPECT_FALSE(streamer.streaming());

  server.stop();
  reset_global_tracer();
}

// A subscription from another protocol version is refused like any other
// request of that version: VersionMismatch, and no stream starts.
TEST(TelemetryStream, OldVersionSubscribeGetsVersionMismatch) {
  CoschedServer server(telemetry_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  TelemetrySubscribeRequest body;
  WireWriter body_writer;
  encode_telemetry_subscribe_request(body_writer, body);
  ResponseEnvelope response = testhelpers::raw_exchange(
      server.port(), 7, MessageType::SubscribeTelemetry, 91,
      body_writer.take());
  EXPECT_EQ(response.status, RpcStatus::VersionMismatch);
  EXPECT_EQ(server.stats().telemetry_frames, 0u);

  server.stop();
}

}  // namespace
}  // namespace cosched
