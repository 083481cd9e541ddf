// Shared glue for the bench binaries: a tiny flag parser, experiment
// banners, and CSV output.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "loadgen/slo.hpp"
#include "util/common.hpp"
#include "util/table.hpp"

namespace cosched {

/// Minimal "--name value" / "--flag" parser. Every getter and has() records
/// the name it was asked for; reject_unread(), called once after the last
/// read, fails the run on any flag nothing asked for, so a misspelt or
/// removed flag is never silently ignored.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric flags: a value that is not entirely a number exits the
  /// process through bad_value().
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int() confined to [lo, hi]: a value outside exits through
  /// bad_value() too, so a narrowing cast at the call site cannot wrap.
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  Real get_real(const std::string& name, Real fallback) const;

  /// Prints "unknown flag --<name>" for every given flag no getter or has()
  /// asked for and exits with status 2, like bad_value(). A flag read only
  /// on a path the run did not take counts as unread.
  void reject_unread() const;

 private:
  template <typename T>
  T get_number(const std::string& name, T fallback) const;
  const std::string* find(const std::string& name) const;

  std::vector<std::pair<std::string, std::string>> args_;
  mutable std::set<std::string> read_;
};

/// Bounds for get_int(): a TCP port, and a count (cores, machines,
/// workers, ...) that must fit the int32 fields it lands in.
inline constexpr std::int64_t kMaxPort = 65535;
inline constexpr std::int64_t kMaxCount =
    std::numeric_limits<std::int32_t>::max();

/// Reports an unusable flag value as "bad value for --<flag>: <text>" on
/// stderr and exits with status 2.
[[noreturn]] void bad_value(const std::string& flag, const std::string& text);

/// The servers' tracer flags, applied to Tracer::global(): --trace 1
/// enables recording, --trace-ring N (at least 1, default 4096) bounds each
/// thread's event ring.
void read_trace_flags(const ArgParser& args);

/// The load driver's SLO gate: --slo FILE and the budget it holds.
struct SloFlag {
  std::string path;  ///< "" when --slo is not given
  SloBudget budget;  ///< loaded from `path`
};

/// Reads --slo FILE. A file that does not load prints
/// "<program>: --slo: <why>" and exits with status 1.
SloFlag read_slo_flag(const ArgParser& args, const std::string& program);

/// Splits "host:port". False unless a colon is present and the port is a
/// whole number in [1, 65535].
bool split_host_port(const std::string& address, std::string& host,
                     std::uint16_t& port);

/// Prints the standard banner identifying the paper artefact a bench
/// regenerates.
void print_experiment_header(const std::string& artefact,
                             const std::string& description);

/// Writes `table` as CSV to `<out_dir>/<name>.csv` (no-op with a warning if
/// the directory cannot be written). Returns the path written.
std::string write_csv(const std::string& out_dir, const std::string& name,
                      const TextTable& table);

}  // namespace cosched
