// Shared glue for the bench binaries: a tiny flag parser, experiment
// banners, and CSV output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/table.hpp"

namespace cosched {

/// Minimal "--name value" / "--flag" parser. Unknown flags are ignored so
/// every bench accepts at least --scale and --out-dir.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric flags: a value that is not entirely a number exits the
  /// process through bad_value().
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  Real get_real(const std::string& name, Real fallback) const;

 private:
  template <typename T>
  T get_number(const std::string& name, T fallback) const;

  std::vector<std::pair<std::string, std::string>> args_;
};

/// Reports an unusable flag value as "bad value for --<flag>: <text>" on
/// stderr and exits with status 2.
[[noreturn]] void bad_value(const std::string& flag, const std::string& text);

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
