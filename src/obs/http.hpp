// Minimal HTTP/1.0 GET/HEAD endpoint on top of the src/net Socket layer.
//
// Just enough HTTP for `curl`, Prometheus scrapers and health probes:
// one accept+serve thread, GET and HEAD only, `Connection: close` on every
// reply. Handlers run on the serving thread and must be fast and
// thread-safe against the rest of the process (the /metrics handler renders
// a registry; the /healthz handler returns a constant). HEAD returns the
// same headers a GET would (including Content-Length) without the body.
// Recognizable-but-unsupported methods (POST, PUT, ...) get 405 with an
// `Allow: GET, HEAD` header; malformed request lines, oversized heads and
// requests that announce or ship a body get 400 — never a silent close.
// A path no handler claims gets 404. `GET /` answers an index of every
// registered route (unless the caller claimed "/" itself), so a human with
// curl discovers the side door without reading the source.
//
// This is deliberately NOT a general web server: no keep-alive, no request
// bodies, no chunking, 8 KiB request cap. The RPC protocol stays on the
// framed binary port; this side door exists so a human with curl — or a
// Prometheus scraper — can watch a live CoschedServer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"

namespace cosched {

struct HttpOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
};

/// Return the response body for a request-target. Routes are matched on
/// the path *before* any `?`; the handler receives the full target
/// (including the query string — parse it with http_query_param).
/// `content_type` defaults to text/plain. Returning false means "not mine"
/// and the dispatcher tries no further — register one handler per path.
using HttpHandler =
    std::function<bool(const std::string& path, std::string& body,
                       std::string& content_type)>;

/// Status-aware variant: the handler picks the HTTP status code (a health
/// endpoint answers 503 when the fleet is down). Returning a code the
/// endpoint does not know renders as 500; returning <= 0 means "not mine"
/// and falls through to 404 like an HttpHandler returning false.
using HttpStatusHandler =
    std::function<int(const std::string& path, std::string& body,
                      std::string& content_type)>;

class HttpEndpoint {
 public:
  explicit HttpEndpoint(HttpOptions options);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Exact-path route. Register every route before start().
  void handle(std::string path, HttpHandler handler);
  /// Exact-path route whose handler also picks the status code.
  void handle_status(std::string path, HttpStatusHandler handler);

  bool start(std::string& error);
  std::uint16_t port() const { return port_; }
  void stop();  ///< joins the serving thread; idempotent

  /// Paths registered so far, in registration order. After start() this
  /// includes the synthesized "/" index (unless the caller claimed "/").
  std::vector<std::string> route_paths() const;

 private:
  void serve_main();
  void serve_connection(Socket socket);

  HttpOptions options_;
  std::vector<std::pair<std::string, HttpStatusHandler>> routes_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Value of `key` in the request-target's query string ("" when absent):
/// http_query_param("/debug/events?job=3", "job") == "3". No %-decoding —
/// the side door's parameters are numbers and bare words.
std::string http_query_param(const std::string& target,
                             const std::string& key);

/// One-shot HTTP/1.0 GET against an HttpEndpoint (or anything equally
/// plain); returns the response body on a 200, empty on any failure. The
/// client-side twin of the endpoint above — the benches scrape /metrics
/// snapshots with it instead of each carrying a private copy.
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path,
                     double timeout_seconds = 5.0);

}  // namespace cosched
