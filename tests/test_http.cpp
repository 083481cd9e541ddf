// Tests for the observability side door: the minimal HTTP/1.0 endpoint
// (src/obs/http), the live CoschedServer's /metrics and /healthz routes —
// the acceptance criterion that GET /metrics serves valid Prometheus text
// including cosched_cache_hits_total and cosched_rpc_request_seconds —
// the tracer's drop/sampling counters and the replan exemplar that leads
// to its trace, the TraceDump RPC, and the GetMetrics observability fields.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/http.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "online/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

using testhelpers::reset_global_tracer;

/// One-shot raw HTTP exchange; returns the full response (status line,
/// headers and body) or empty on transport failure.
std::string raw_http(std::uint16_t port, const std::string& request) {
  NetStatus status = NetStatus::Ok;
  Deadline deadline = Deadline::after(5.0);
  Socket socket = Socket::connect_to("127.0.0.1", port, deadline, status);
  if (status != NetStatus::Ok) return {};
  if (socket.send_all(request.data(), request.size(), deadline) !=
      NetStatus::Ok)
    return {};
  socket.shutdown_send();
  std::string response;
  char chunk[4096];
  while (true) {
    std::size_t got = 0;
    NetStatus recv_status =
        socket.recv_some(chunk, sizeof(chunk), got, deadline);
    if (recv_status == NetStatus::Closed) break;
    if (recv_status != NetStatus::Ok) return {};
    response.append(chunk, got);
  }
  return response;
}

std::string http_body(const std::string& response) {
  std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

TEST(HttpEndpointTest, RoutesGetRequestsAndRejectsEverythingElse) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/ping", [](const std::string&, std::string& body,
                              std::string& content_type) {
    body = "pong";
    content_type = "text/plain";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;
  ASSERT_NE(endpoint.port(), 0);

  std::string ok = raw_http(endpoint.port(), "GET /ping HTTP/1.0\r\n\r\n");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200", 0), 0u) << ok;
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 4"), std::string::npos);
  EXPECT_EQ(http_body(ok), "pong");

  std::string missing =
      raw_http(endpoint.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u) << missing;

  // Recognizable-but-unsupported method: 405 + Allow, not a silent close.
  std::string post = raw_http(endpoint.port(), "POST /ping HTTP/1.0\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.0 405", 0), 0u) << post;
  EXPECT_NE(post.find("Allow: GET, HEAD"), std::string::npos) << post;

  // Garbage that is not even a method token: 400.
  std::string garbage = raw_http(endpoint.port(), "get /ping HTTP/1.0\r\n\r\n");
  EXPECT_EQ(garbage.rfind("HTTP/1.0 400", 0), 0u) << garbage;

  endpoint.stop();
  endpoint.stop();  // idempotent
}

TEST(HttpEndpointTest, HeadReturnsHeadersWithoutBody) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/ping", [](const std::string&, std::string& body,
                              std::string& content_type) {
    body = "pong";
    content_type = "text/plain";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;

  std::string head = raw_http(endpoint.port(), "HEAD /ping HTTP/1.0\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.0 200", 0), 0u) << head;
  // The headers advertise the length a GET would carry...
  EXPECT_NE(head.find("Content-Length: 4"), std::string::npos) << head;
  // ...but the body itself is omitted.
  EXPECT_EQ(http_body(head), "");

  std::string missing =
      raw_http(endpoint.port(), "HEAD /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u) << missing;
  EXPECT_EQ(http_body(missing), "");

  endpoint.stop();
}

TEST(HttpEndpointTest, IndexPageListsRegisteredRoutes) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/ping", [](const std::string&, std::string& body,
                              std::string&) {
    body = "pong";
    return true;
  });
  endpoint.handle("/stats", [](const std::string&, std::string& body,
                               std::string&) {
    body = "{}";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;

  // The endpoint synthesizes a "/" index once started; route_paths() shows
  // it alongside the caller's routes.
  std::vector<std::string> paths = endpoint.route_paths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], "/ping");
  EXPECT_EQ(paths[1], "/stats");
  EXPECT_EQ(paths[2], "/");

  std::string index = raw_http(endpoint.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_EQ(index.rfind("HTTP/1.0 200", 0), 0u) << index;
  std::string body = http_body(index);
  EXPECT_NE(body.find("routes:"), std::string::npos) << body;
  EXPECT_NE(body.find("  /ping\n"), std::string::npos) << body;
  EXPECT_NE(body.find("  /stats\n"), std::string::npos) << body;
  // The index lists itself too — curl of any listed path succeeds.
  EXPECT_NE(body.find("  /\n"), std::string::npos) << body;

  endpoint.stop();
}

// A caller that claims "/" itself wins: no synthesized index on top.
TEST(HttpEndpointTest, CallerProvidedRootIsNotOverridden) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/", [](const std::string&, std::string& body,
                          std::string&) {
    body = "custom root";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;
  EXPECT_EQ(endpoint.route_paths().size(), 1u);
  std::string root = raw_http(endpoint.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_EQ(http_body(root), "custom root");
  endpoint.stop();
}

TEST(HttpEndpointTest, RejectsRequestBodies) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/ping", [](const std::string&, std::string& body,
                              std::string&) {
    body = "pong";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;

  // Announced body (Content-Length > 0), even on a GET.
  std::string announced = raw_http(
      endpoint.port(), "GET /ping HTTP/1.0\r\nContent-Length: 3\r\n\r\n");
  EXPECT_EQ(announced.rfind("HTTP/1.0 400", 0), 0u) << announced;

  // Bytes shipped past the head terminator.
  std::string shipped =
      raw_http(endpoint.port(), "GET /ping HTTP/1.0\r\n\r\nxyz");
  EXPECT_EQ(shipped.rfind("HTTP/1.0 400", 0), 0u) << shipped;

  // Chunked uploads are equally unwelcome.
  std::string chunked = raw_http(
      endpoint.port(),
      "GET /ping HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(chunked.rfind("HTTP/1.0 400", 0), 0u) << chunked;

  // Content-Length: 0 announces no body and stays acceptable.
  std::string empty = raw_http(
      endpoint.port(), "GET /ping HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(empty.rfind("HTTP/1.0 200", 0), 0u) << empty;

  endpoint.stop();
}

TEST(HttpEndpointTest, OversizedRequestsGetAnAnswerNotAReset) {
  HttpEndpoint endpoint(HttpOptions{});
  endpoint.handle("/ping", [](const std::string&, std::string& body,
                              std::string&) {
    body = "pong";
    return true;
  });
  std::string error;
  ASSERT_TRUE(endpoint.start(error)) << error;

  // A runaway request line (no CRLF in sight) is answered early with 400
  // instead of silently dropping the connection.
  std::string runaway_line(6 * 1024, 'a');
  std::string runaway = raw_http(endpoint.port(), "GET /" + runaway_line);
  EXPECT_EQ(runaway.rfind("HTTP/1.0 400", 0), 0u) << runaway.substr(0, 64);

  // An oversized header block likewise.
  std::string huge_header =
      "GET /ping HTTP/1.0\r\nX-Padding: " + std::string(9 * 1024, 'b') +
      "\r\n\r\n";
  std::string oversized = raw_http(endpoint.port(), huge_header);
  EXPECT_EQ(oversized.rfind("HTTP/1.0 400", 0), 0u)
      << oversized.substr(0, 64);

  endpoint.stop();
}

// ------------------------------------------------- live server routes

ServerOptions observable_server_options() {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;       // ephemeral RPC port
  options.http_port = 0;  // ephemeral observability port
  options.service.wall_clock = false;
  options.service.scheduler.cores = 2;
  options.service.scheduler.machines = 3;
  options.service.scheduler.admission.every_k = 2;
  return options;
}

WorkloadTrace small_jobs(std::uint64_t seed, std::int32_t jobs = 8) {
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

// THE /metrics acceptance criterion: the exposition parses as Prometheus
// text and carries the cache and RPC-latency series.
TEST(HttpMetrics, LiveServerServesParseablePrometheusText) {
  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ASSERT_NE(server.http_port(), 0);

  // The latency histogram is process-global: count from what is there.
  auto request_count = [&] {
    std::string scrape =
        raw_http(server.http_port(), "GET /metrics HTTP/1.0\r\n\r\n");
    std::vector<PrometheusSample> samples;
    EXPECT_TRUE(parse_prometheus_text(http_body(scrape), samples));
    for (const PrometheusSample& s : samples)
      if (s.name == "cosched_rpc_request_seconds_count") return s.value;
    return -1.0;
  };
  const double requests_before = request_count();

  // Put some traffic through so the latency histogram has samples.
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  const WorkloadTrace jobs = small_jobs(31);
  for (const TraceJob& job : jobs.jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  std::string health =
      raw_http(server.http_port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(health.rfind("HTTP/1.0 200", 0), 0u) << health;
  EXPECT_EQ(http_body(health), "ok\n");

  std::string response =
      raw_http(server.http_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  ASSERT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  std::string exposition = http_body(response);

  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(exposition, samples)) << exposition;
  bool saw_cache_hits = false;
  bool saw_request_seconds = false;
  for (const PrometheusSample& s : samples) {
    if (s.name == "cosched_cache_hits_total") saw_cache_hits = true;
    if (s.name.rfind("cosched_rpc_request_seconds", 0) == 0)
      saw_request_seconds = true;
  }
  EXPECT_TRUE(saw_cache_hits);
  EXPECT_TRUE(saw_request_seconds);
  // Every submit was observed before its reply reached the client; HTTP
  // requests (health, scrapes) are not RPC requests and are not counted.
  EXPECT_EQ(request_count() - requests_before,
            static_cast<double>(jobs.jobs.size()));

  server.stop();
}

TEST(HttpMetrics, EndpointCanBeDisabled) {
  ServerOptions options = observable_server_options();
  options.enable_http = false;
  CoschedServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  EXPECT_EQ(server.http_port(), 0);
  server.stop();
}

// -------------------------------------------------------- TraceDump RPC

TEST(TraceDumpRpc, ReturnsServerSideSpans) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.reset();
  tracer.set_enabled(true);

  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  for (const TraceJob& job : small_jobs(32, 4).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  TraceDumpResponse dump;
  RpcError rpc_error = client.trace_dump(dump);
  ASSERT_TRUE(rpc_error.ok()) << rpc_error.describe();
  EXPECT_TRUE(dump.enabled);
  EXPECT_GT(dump.event_count, 0u);
  EXPECT_NE(dump.text.find("rpc.request"), std::string::npos);
  EXPECT_EQ(dump.chrome_json.front(), '[');
  EXPECT_NE(dump.chrome_json.find("\"name\":\"rpc.request\""),
            std::string::npos);

  server.stop();
  tracer.set_enabled(false);
  tracer.reset();
}

// One client-supplied trace id is visible on the replan phase spans (no
// solver runs on the online path; the repair runs in replan.alignment) and
// the Chrome export's flow events.
TEST(TraceDumpRpc, ClientTraceIdReachesReplanAndSolverSpans) {
  reset_global_tracer();
  Tracer::global().set_enabled(true);

  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  constexpr std::uint64_t kTraceId = 777001;
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  client.set_trace_id(kTraceId);
  for (const TraceJob& job : small_jobs(41).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }
  EXPECT_EQ(client.last_trace_id(), kTraceId);  // the server echoes the id

  // Server-side spans: every replan phase carries the id.
  TraceDumpResponse dump;
  ASSERT_TRUE(client.trace_dump(dump).ok());
  const std::string tag = " trace=777001";
  for (const char* name :
       {"span online.replan", "span replan.admission",
        "span replan.alignment", "span replan.commit"}) {
    std::size_t at = dump.text.find(name);
    ASSERT_NE(at, std::string::npos) << name << "\n" << dump.text;
    std::size_t eol = dump.text.find('\n', at);
    EXPECT_NE(dump.text.substr(at, eol - at).find(tag), std::string::npos)
        << name << " line lacks the client trace id:\n"
        << dump.text.substr(at, eol - at);
  }
  // Chrome export: spans stamped with the id plus flow events linking the
  // RPC request to the replan work for Perfetto's arrows.
  EXPECT_NE(dump.chrome_json.find("\"trace_id\":777001"), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(dump.chrome_json.find("\"bp\":\"e\""), std::string::npos);

  server.stop();
  reset_global_tracer();
}

// "Which trace is behind this slow replan bucket?": a replan-duration
// exemplar on /metrics names a trace whose online.replan span the server's
// TraceDump holds.
TEST(HttpMetrics, ReplanExemplarLeadsToItsReplanSpan) {
  reset_global_tracer();
  Tracer::global().set_enabled(true);

  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  constexpr std::uint64_t kTraceId = 424242;
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  client.set_trace_id(kTraceId);
  for (const TraceJob& job : small_jobs(43).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  std::string response =
      raw_http(server.http_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  ASSERT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(http_body(response), samples));
  std::uint64_t exemplar_trace = 0;
  for (const PrometheusSample& s : samples) {
    if (s.name != "cosched_replan_duration_seconds_bucket" || !s.has_exemplar)
      continue;
    // exemplar_labels is `trace_id="<16 hex>"`.
    std::size_t open = s.exemplar_labels.find('"');
    std::size_t close = s.exemplar_labels.rfind('"');
    ASSERT_NE(open, close) << s.exemplar_labels;
    exemplar_trace = std::strtoull(
        s.exemplar_labels.substr(open + 1, close - open - 1).c_str(), nullptr,
        16);
    if (exemplar_trace == kTraceId) break;
  }
  ASSERT_EQ(exemplar_trace, kTraceId) << "no replan exemplar of this traffic";

  TraceDumpResponse dump;
  ASSERT_TRUE(client.trace_dump(dump).ok());
  const std::string tag = " trace=" + std::to_string(exemplar_trace);
  bool found = false;
  for (std::size_t at = dump.text.find("span online.replan");
       at != std::string::npos && !found;
       at = dump.text.find("span online.replan", at + 1)) {
    std::size_t eol = dump.text.find('\n', at);
    found = dump.text.substr(at, eol - at).find(tag) != std::string::npos;
  }
  EXPECT_TRUE(found) << "no online.replan span tagged" << tag << "\n"
                     << dump.text;

  server.stop();
  reset_global_tracer();
}

// Under a long-lived configuration (small rings, heavy head sampling, an
// always-keep category) /metrics reports the ring overwrites and the
// sampled-out traces, and the always-keep spans survive the sampling.
TEST(HttpMetrics, TracerDropAndSampledOutCountersReachMetrics) {
  reset_global_tracer();
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.set_max_events_per_thread(16);
  tracer.set_sample_every(1000000);  // effectively: drop every trace
  tracer.set_always_keep({"replan."});

  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  for (const TraceJob& job : small_jobs(44, 16).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  std::string response =
      raw_http(server.http_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  ASSERT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(http_body(response), samples));
  double dropped = -1.0;
  double sampled_out = -1.0;
  for (const PrometheusSample& s : samples) {
    if (s.name == "cosched_tracer_dropped_events_total") dropped = s.value;
    if (s.name == "cosched_tracer_sampled_out_traces_total")
      sampled_out = s.value;
  }
  EXPECT_GT(dropped, 0.0);
  EXPECT_GT(sampled_out, 0.0);

  TraceDumpResponse dump;
  ASSERT_TRUE(client.trace_dump(dump).ok());
  EXPECT_NE(dump.text.find("span replan."), std::string::npos) << dump.text;
  EXPECT_EQ(dump.text.find("span rpc.request"), std::string::npos)
      << dump.text;

  server.stop();
  reset_global_tracer();
}

// --------------------------------------------------- GetMetrics on the wire

// GetMetrics carries the newest request-latency exemplar, whose trace id
// must refer to a real request.
TEST(ProtocolWire, MetricsCarryLatencyExemplar) {
  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  ClientOptions client_options;
  client_options.port = server.port();
  CoschedClient client(client_options);
  for (const TraceJob& job : small_jobs(36, 4).jobs) {
    SubmitJobResponse reply;
    ASSERT_TRUE(client.submit_job(job, reply).ok());
  }

  MetricsResponse metrics;
  ASSERT_TRUE(client.get_metrics(metrics).ok());
  // The latency exemplar reflects the traffic above.
  EXPECT_NE(metrics.latency_exemplar_trace_id, 0u);
  EXPECT_GE(metrics.latency_exemplar_seconds, 0.0);

  server.stop();
}

// A peer speaking a future version is refused with VersionMismatch, not
// misparsed.
TEST(ProtocolWire, FutureVersionIsRefused) {
  CoschedServer server(observable_server_options());
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  NetStatus net = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", server.port(),
                                  Deadline::after(2.0), net);
  ASSERT_EQ(net, NetStatus::Ok);

  RequestEnvelope request;
  request.version = kProtocolVersion + 1;
  request.type = MessageType::GetMetrics;
  request.request_id = 78;
  ASSERT_EQ(write_frame(raw, encode_request(request), Deadline::after(2.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(raw, payload, Deadline::after(5.0)), FrameStatus::Ok);

  ResponseEnvelope response;
  ASSERT_TRUE(decode_response(payload, response));
  EXPECT_EQ(response.status, RpcStatus::VersionMismatch);

  server.stop();
}

}  // namespace
}  // namespace cosched
