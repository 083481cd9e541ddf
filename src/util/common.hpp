// Common definitions shared by every cosched module.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace cosched {

/// Floating-point type used for degradations, times and objective values.
using Real = double;

/// Identifier of a process (0-based). A serial job owns exactly one process;
/// a parallel job owns several consecutive ones.
using ProcessId = std::int32_t;

/// Identifier of a job (0-based), serial or parallel.
using JobId = std::int32_t;

inline constexpr ProcessId kInvalidProcess = -1;
inline constexpr JobId kInvalidJob = -1;
inline constexpr Real kInfinity = std::numeric_limits<Real>::infinity();

/// Thrown when an API precondition is violated by the caller.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* what, const char* expr,
                                       std::source_location loc) {
  std::string msg = std::string(what) + ": `" + expr + "` at " +
                    loc.file_name() + ":" + std::to_string(loc.line()) + " (" +
                    loc.function_name() + ")";
  throw ContractViolation(msg);
}
}  // namespace detail

/// Precondition check. Always on (the costs are negligible next to search);
/// throws ContractViolation so tests can assert on misuse.
#define COSCHED_EXPECTS(cond)                                       \
  do {                                                              \
    if (!(cond))                                                    \
      ::cosched::detail::contract_fail("precondition failed", #cond, \
                                       std::source_location::current()); \
  } while (0)

/// Internal invariant check.
#define COSCHED_ENSURES(cond)                                      \
  do {                                                             \
    if (!(cond))                                                   \
      ::cosched::detail::contract_fail("invariant failed", #cond,  \
                                       std::source_location::current()); \
  } while (0)

/// Approximate floating-point comparison tolerance used across the library
/// when comparing objective values produced along different code paths.
inline constexpr Real kObjectiveEps = 1e-9;

/// Parses all of `text` (surrounding whitespace allowed) as a T. False on
/// an empty or partly numeric text and on integers outside T's range. Reals
/// keep strtod's spellings of nan/inf: callers check their own domain.
template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_floating_point_v<T>) {
    out = static_cast<T>(std::strtod(begin, &end));
  } else {
    long long raw = std::strtoll(begin, &end, 10);
    if (errno == ERANGE || raw < std::numeric_limits<T>::min() ||
        raw > std::numeric_limits<T>::max())
      return false;
    out = static_cast<T>(raw);
  }
  if (end == begin) return false;
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  return *end == '\0';
}

}  // namespace cosched
