// Portable POSIX TCP socket wrapper for the RPC front-end.
//
// Design rules, in order of importance:
//  * RAII — a Socket owns exactly one file descriptor; moves transfer it,
//    destruction closes it. No fd ever leaks past a throw.
//  * deadlines, not sleeps — every blocking operation takes a Deadline and
//    is implemented as poll() + non-blocking I/O, so a hung peer turns into
//    NetStatus::Timeout instead of a stuck worker thread.
//  * status codes, not exceptions — transport failures are expected events
//    (peers disconnect mid-request all the time); callers branch on
//    NetStatus and decide whether to retry, close or report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace cosched {

/// Outcome of a transport operation.
enum class NetStatus {
  Ok,
  Timeout,  ///< the deadline expired before the operation completed
  Closed,   ///< orderly shutdown by the peer (EOF) or on a closed socket
  Refused,  ///< connection refused / unreachable
  Error,    ///< any other socket-level failure (errno preserved in message)
};

const char* to_string(NetStatus status);

/// Absolute point in steady time after which blocking operations give up.
/// Deadline::never() never expires; Deadline::after(seconds) is the usual
/// constructor ("this request has 2 s of budget left").
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  static Deadline never() { return Deadline(Clock::time_point::max()); }
  static Deadline after(double seconds);
  static Deadline at(Clock::time_point when) { return Deadline(when); }

  bool expired() const;
  /// Remaining budget in milliseconds, clamped to [0, INT_MAX]; -1 = never.
  int remaining_ms() const;

 private:
  explicit Deadline(Clock::time_point when) : when_(when) {}
  Clock::time_point when_;
};

/// Move-only owner of one TCP socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Listening socket bound to `host`:`port` (port 0 = ephemeral; read the
  /// chosen one back with local_port()). SO_REUSEADDR is set; the socket is
  /// non-blocking so accept loops can poll.
  static Socket listen_on(const std::string& host, std::uint16_t port,
                          int backlog, NetStatus& status);

  /// Accepts one pending connection, waiting at most until `deadline`.
  /// The returned socket is blocking-mode with TCP_NODELAY set.
  Socket accept_connection(const Deadline& deadline, NetStatus& status);

  /// Non-blocking connect with a deadline, then back to blocking mode with
  /// TCP_NODELAY.
  static Socket connect_to(const std::string& host, std::uint16_t port,
                           const Deadline& deadline, NetStatus& status);

  /// Sends exactly `len` bytes or reports why it could not.
  NetStatus send_all(const void* data, std::size_t len,
                     const Deadline& deadline);
  /// Receives exactly `len` bytes; NetStatus::Closed on a clean EOF before
  /// the first byte *and* on a mid-buffer EOF (the frame layer distinguishes
  /// the two by how much it had already read).
  NetStatus recv_all(void* data, std::size_t len, const Deadline& deadline);

  /// Receives at most `max_len` bytes — whatever one recv() returns once
  /// the socket is readable. For self-delimiting text protocols (the
  /// /metrics HTTP endpoint) where the total length is unknown up front.
  /// `received` is 0 on any non-Ok status; Closed = clean peer EOF.
  NetStatus recv_some(void* data, std::size_t max_len, std::size_t& received,
                      const Deadline& deadline);

  /// Local port (after listen_on/connect); 0 on error.
  std::uint16_t local_port() const;

  /// Disables further sends, letting the peer observe a clean EOF.
  void shutdown_send();

 private:
  int fd_ = -1;
};

}  // namespace cosched
