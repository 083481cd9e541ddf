#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

namespace cosched {

namespace {

bool set_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if (on)
    flags |= O_NONBLOCK;
  else
    flags &= ~O_NONBLOCK;
  return ::fcntl(fd, F_SETFL, flags) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// poll() one fd for `events`, honouring the deadline and EINTR.
NetStatus poll_fd(int fd, short events, const Deadline& deadline) {
  while (true) {
    int budget = deadline.remaining_ms();
    if (budget == 0) return NetStatus::Timeout;
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    int rc = ::poll(&p, 1, budget);
    if (rc > 0) {
      if (p.revents & (POLLERR | POLLNVAL)) return NetStatus::Error;
      return NetStatus::Ok;  // readable/writable or HUP (recv sees the EOF)
    }
    if (rc == 0) return NetStatus::Timeout;
    if (errno != EINTR) return NetStatus::Error;
  }
}

bool parse_address(const std::string& host, std::uint16_t port,
                   sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* h = host.empty() ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, h, &addr.sin_addr) == 1;
}

}  // namespace

const char* to_string(NetStatus status) {
  switch (status) {
    case NetStatus::Ok: return "ok";
    case NetStatus::Timeout: return "timeout";
    case NetStatus::Closed: return "closed";
    case NetStatus::Refused: return "refused";
    case NetStatus::Error: return "error";
  }
  return "?";
}

Deadline Deadline::after(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  auto delta = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  return Deadline(Clock::now() + delta);
}

bool Deadline::expired() const {
  return when_ != Clock::time_point::max() && Clock::now() >= when_;
}

int Deadline::remaining_ms() const {
  if (when_ == Clock::time_point::max()) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      when_ - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > INT_MAX) return INT_MAX;
  return static_cast<int>(left.count());
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::listen_on(const std::string& host, std::uint16_t port,
                         int backlog, NetStatus& status) {
  sockaddr_in addr;
  if (!parse_address(host, port, addr)) {
    status = NetStatus::Error;
    return {};
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    status = NetStatus::Error;
    return {};
  }
  int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(s.fd(), backlog) != 0 || !set_nonblocking(s.fd(), true)) {
    status = NetStatus::Error;
    return {};
  }
  status = NetStatus::Ok;
  return s;
}

Socket Socket::accept_connection(const Deadline& deadline, NetStatus& status) {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd, false);
      set_nodelay(fd);
      status = NetStatus::Ok;
      return Socket(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      status = poll_fd(fd_, POLLIN, deadline);
      if (status != NetStatus::Ok) return {};
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    status = NetStatus::Error;
    return {};
  }
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port,
                          const Deadline& deadline, NetStatus& status) {
  sockaddr_in addr;
  if (!parse_address(host, port, addr)) {
    status = NetStatus::Error;
    return {};
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid() || !set_nonblocking(s.fd(), true)) {
    status = NetStatus::Error;
    return {};
  }
  int rc = ::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno == ECONNREFUSED) {
      status = NetStatus::Refused;
      return {};
    }
    if (errno != EINPROGRESS && errno != EINTR) {
      status = NetStatus::Error;
      return {};
    }
    status = poll_fd(s.fd(), POLLOUT, deadline);
    if (status == NetStatus::Timeout) return {};
    // A refused connect surfaces as POLLERR, which poll_fd reports as Error;
    // SO_ERROR identifies the actual failure either way.
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      status = NetStatus::Error;
      return {};
    }
    if (err != 0) {
      status = (err == ECONNREFUSED || err == EHOSTUNREACH ||
                err == ENETUNREACH)
                   ? NetStatus::Refused
                   : NetStatus::Error;
      return {};
    }
    if (status != NetStatus::Ok) return {};
  }
  if (!set_nonblocking(s.fd(), false)) {
    status = NetStatus::Error;
    return {};
  }
  set_nodelay(s.fd());
  status = NetStatus::Ok;
  return s;
}

NetStatus Socket::send_all(const void* data, std::size_t len,
                           const Deadline& deadline) {
  if (!valid()) return NetStatus::Closed;
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    if (deadline.expired()) return NetStatus::Timeout;
    ssize_t n = ::send(fd_, p + sent, len - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      NetStatus st = poll_fd(fd_, POLLOUT, deadline);
      if (st != NetStatus::Ok) return st;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      return NetStatus::Closed;
    return NetStatus::Error;
  }
  return NetStatus::Ok;
}

NetStatus Socket::recv_all(void* data, std::size_t len,
                           const Deadline& deadline) {
  if (!valid()) return NetStatus::Closed;
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    if (deadline.expired()) return NetStatus::Timeout;
    ssize_t n = ::recv(fd_, p + got, len - got, MSG_DONTWAIT);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return NetStatus::Closed;  // peer EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      NetStatus st = poll_fd(fd_, POLLIN, deadline);
      if (st != NetStatus::Ok) return st;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return NetStatus::Closed;
    return NetStatus::Error;
  }
  return NetStatus::Ok;
}

NetStatus Socket::recv_some(void* data, std::size_t max_len,
                            std::size_t& received, const Deadline& deadline) {
  received = 0;
  if (!valid()) return NetStatus::Closed;
  while (true) {
    if (deadline.expired()) return NetStatus::Timeout;
    ssize_t n = ::recv(fd_, data, max_len, MSG_DONTWAIT);
    if (n > 0) {
      received = static_cast<std::size_t>(n);
      return NetStatus::Ok;
    }
    if (n == 0) return NetStatus::Closed;  // peer EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      NetStatus st = poll_fd(fd_, POLLIN, deadline);
      if (st != NetStatus::Ok) return st;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return NetStatus::Closed;
    return NetStatus::Error;
  }
}

std::uint16_t Socket::local_port() const {
  if (!valid()) return 0;
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

void Socket::shutdown_send() {
  if (valid()) ::shutdown(fd_, SHUT_WR);
}

}  // namespace cosched
