#include "obs/http.hpp"

#include <cctype>
#include <utility>

#include "util/common.hpp"

namespace cosched {

namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;
constexpr std::size_t kMaxRequestLineBytes = 4 * 1024;
constexpr int kBacklog = 8;
/// Accept-loop poll slice; responsiveness of stop(), nothing else.
constexpr double kIdlePollSeconds = 0.2;
/// Per-connection budget for reading the request and writing the reply.
constexpr double kRequestTimeoutSeconds = 5.0;

std::string status_line(int code) {
  switch (code) {
    case 200: return "HTTP/1.0 200 OK\r\n";
    case 400: return "HTTP/1.0 400 Bad Request\r\n";
    case 404: return "HTTP/1.0 404 Not Found\r\n";
    case 405: return "HTTP/1.0 405 Method Not Allowed\r\n";
    case 503: return "HTTP/1.0 503 Service Unavailable\r\n";
    default: return "HTTP/1.0 500 Internal Server Error\r\n";
  }
}

/// `head_only` sends the full header block (including the Content-Length
/// the body would have) but no body bytes — the HEAD contract.
void send_response(Socket& socket, int code, const std::string& body,
                   const std::string& content_type, const Deadline& deadline,
                   bool head_only = false) {
  std::string response = status_line(code);
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (code == 405) response += "Allow: GET, HEAD\r\n";
  response += "Connection: close\r\n\r\n";
  if (!head_only) response += body;
  socket.send_all(response.data(), response.size(), deadline);
  socket.shutdown_send();
}

/// True iff the header block names a non-empty request body
/// (Content-Length > 0 or any Transfer-Encoding). Case-insensitive.
bool headers_announce_body(const std::string& headers) {
  std::string lower;
  lower.reserve(headers.size());
  for (char c : headers)
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  if (lower.find("transfer-encoding:") != std::string::npos) return true;
  std::size_t at = lower.find("content-length:");
  if (at == std::string::npos) return false;
  std::size_t p = at + 15;
  while (p < lower.size() && (lower[p] == ' ' || lower[p] == '\t')) ++p;
  return p < lower.size() && lower[p] >= '1' && lower[p] <= '9';
}

}  // namespace

HttpEndpoint::HttpEndpoint(HttpOptions options)
    : options_(std::move(options)) {}

HttpEndpoint::~HttpEndpoint() { stop(); }

void HttpEndpoint::handle(std::string path, HttpHandler handler) {
  COSCHED_EXPECTS(handler != nullptr);
  handle_status(std::move(path),
                [handler = std::move(handler)](const std::string& p,
                                               std::string& body,
                                               std::string& content_type) {
                  return handler(p, body, content_type) ? 200 : 0;
                });
}

void HttpEndpoint::handle_status(std::string path, HttpStatusHandler handler) {
  COSCHED_EXPECTS(!thread_.joinable());  // routes are fixed once started
  COSCHED_EXPECTS(handler != nullptr);
  routes_.emplace_back(std::move(path), std::move(handler));
}

std::vector<std::string> HttpEndpoint::route_paths() const {
  std::vector<std::string> paths;
  paths.reserve(routes_.size());
  for (const auto& [route, handler] : routes_) paths.push_back(route);
  return paths;
}

bool HttpEndpoint::start(std::string& error) {
  // Synthesize the index route unless the caller claimed "/" itself. The
  // body is captured now — routes are fixed once started, so a snapshot is
  // exact — one path per line, registration order.
  bool has_root = false;
  for (const auto& [route, handler] : routes_)
    if (route == "/") has_root = true;
  if (!has_root) {
    std::string index = "cosched http endpoint\nroutes:\n";
    for (const auto& [route, handler] : routes_) index += "  " + route + "\n";
    index += "  /\n";  // the index lists itself: every route curls
    routes_.emplace_back(
        "/", [index](const std::string&, std::string& body,
                     std::string& content_type) {
          body = index;
          content_type = "text/plain; charset=utf-8";
          return 200;
        });
  }

  NetStatus status = NetStatus::Ok;
  listener_ = Socket::listen_on(options_.host, options_.port,
                                kBacklog, status);
  if (status != NetStatus::Ok) {
    error = std::string("cannot listen on ") + options_.host + ": " +
            to_string(status);
    return false;
  }
  port_ = listener_.local_port();
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread(&HttpEndpoint::serve_main, this);
  return true;
}

void HttpEndpoint::stop() {
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void HttpEndpoint::serve_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    NetStatus status = NetStatus::Ok;
    Socket conn = listener_.accept_connection(
        Deadline::after(kIdlePollSeconds), status);
    if (status == NetStatus::Timeout) continue;
    if (status != NetStatus::Ok) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    serve_connection(std::move(conn));
  }
}

void HttpEndpoint::serve_connection(Socket socket) {
  Deadline deadline = Deadline::after(kRequestTimeoutSeconds);
  // Read until the end of the request head (or the cap, or the budget).
  std::string request;
  char chunk[1024];
  std::size_t head_end = std::string::npos;
  while ((head_end = request.find("\r\n\r\n")) == std::string::npos) {
    if (request.size() >= kMaxRequestBytes ||
        (request.find("\r\n") == std::string::npos &&
         request.size() >= kMaxRequestLineBytes)) {
      // Oversized head or runaway request line: answer before hanging up,
      // so well-meaning-but-wrong clients see *why* instead of a reset.
      send_response(socket, 400, "request too large\n", "text/plain",
                    deadline);
      // Drain whatever the peer is still sending — closing with unread
      // bytes queued triggers a RST that can destroy the 400 in flight.
      std::size_t drained = 0;
      while (socket.recv_some(chunk, sizeof(chunk), drained, deadline) ==
             NetStatus::Ok) {
      }
      return;
    }
    std::size_t got = 0;
    NetStatus status =
        socket.recv_some(chunk, sizeof(chunk), got, deadline);
    if (status != NetStatus::Ok) {
      // A newline-terminated request line is enough for HTTP/1.0 clients
      // that close their send side right after the request.
      if (status == NetStatus::Closed &&
          request.find("\r\n") != std::string::npos)
        break;
      return;
    }
    request.append(chunk, got);
  }

  std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) line_end = request.size();
  const std::string line = request.substr(0, line_end);

  // "<METHOD> <path> HTTP/1.x". A recognizable-but-unsupported method gets
  // 405 + Allow (the observability door is read-only); anything that does
  // not even parse as a method token gets 400.
  std::size_t method_end = line.find(' ');
  if (method_end == std::string::npos || method_end == 0) {
    send_response(socket, 400, "malformed request line\n", "text/plain",
                  deadline);
    return;
  }
  const std::string method = line.substr(0, method_end);
  bool method_token = true;
  for (char c : method)
    if (!std::isupper(static_cast<unsigned char>(c))) method_token = false;
  if (!method_token) {
    send_response(socket, 400, "malformed request line\n", "text/plain",
                  deadline);
    return;
  }
  const bool head = method == "HEAD";
  if (!head && method != "GET") {
    send_response(socket, 405, "method not allowed: " + method + "\n",
                  "text/plain", deadline);
    return;
  }

  // This endpoint serves only bodyless reads: a request that announces a
  // body (Content-Length/Transfer-Encoding) or ships bytes past the head
  // terminator is rejected rather than half-parsed.
  const std::string headers =
      head_end == std::string::npos
          ? (line_end + 2 <= request.size() ? request.substr(line_end + 2)
                                            : std::string())
          : request.substr(line_end + 2, head_end - line_end - 2);
  const bool trailing_bytes =
      head_end != std::string::npos && request.size() > head_end + 4;
  if (trailing_bytes || headers_announce_body(headers)) {
    send_response(socket, 400, "request bodies are not supported\n",
                  "text/plain", deadline);
    return;
  }

  std::size_t path_end = line.find(' ', method_end + 1);
  if (path_end == std::string::npos) {
    send_response(socket, 400, "malformed request line\n", "text/plain",
                  deadline);
    return;
  }
  std::string path =
      line.substr(method_end + 1, path_end - method_end - 1);

  // Routes match on the path alone; the handler receives the full
  // request-target so it can parse its own query string
  // (http_query_param).
  const std::size_t query_at = path.find('?');
  const std::string bare_path =
      query_at == std::string::npos ? path : path.substr(0, query_at);
  for (const auto& [route, handler] : routes_) {
    if (route != bare_path) continue;
    std::string body;
    std::string content_type = "text/plain; charset=utf-8";
    int code = handler(path, body, content_type);
    if (code <= 0) break;  // handler declined — fall through to 404
    send_response(socket, code, body, content_type, deadline, head);
    return;
  }
  send_response(socket, 404, "no such path: " + path + "\n", "text/plain",
                deadline, head);
}

std::string http_query_param(const std::string& target,
                             const std::string& key) {
  std::size_t at = target.find('?');
  if (at == std::string::npos) return {};
  std::string query = target.substr(at + 1);
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0)
      return query.substr(eq + 1, amp - eq - 1);
    pos = amp + 1;
  }
  return {};
}

std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, double timeout_seconds) {
  NetStatus status = NetStatus::Ok;
  Deadline deadline = Deadline::after(timeout_seconds);
  Socket socket = Socket::connect_to(host, port, deadline, status);
  if (status != NetStatus::Ok) return {};
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
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
  std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) return {};
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0)
    return {};
  return response.substr(body_at + 4);
}

}  // namespace cosched
