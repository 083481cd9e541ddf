#include "harness/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/trace.hpp"

namespace cosched {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string name = arg.substr(2);
    std::string value;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    args_.emplace_back(std::move(name), std::move(value));
  }
}

const std::string* ArgParser::find(const std::string& name) const {
  read_.insert(name);
  for (const auto& [k, v] : args_)
    if (k == name) return &v;
  return nullptr;
}

bool ArgParser::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* value = find(name);
  return value != nullptr ? *value : fallback;
}

template <typename T>
T ArgParser::get_number(const std::string& name, T fallback) const {
  read_.insert(name);
  for (const auto& [k, v] : args_) {
    if (k != name || v.empty()) continue;
    T value{};
    if (!parse_number(v, value)) bad_value(name, v);
    return value;
  }
  return fallback;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  return get_number(name, fallback);
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback, std::int64_t lo,
                                std::int64_t hi) const {
  std::int64_t value = get_int(name, fallback);
  if (value < lo || value > hi) bad_value(name, get_string(name, ""));
  return value;
}

Real ArgParser::get_real(const std::string& name, Real fallback) const {
  return get_number(name, fallback);
}

namespace {

/// The one exit path for unusable command lines.
[[noreturn]] void exit_usage() {
  std::cout.flush();
  // _Exit, not exit: a binary may already run service threads that static
  // destructors would pull the globals out from under.
  std::_Exit(2);
}

}  // namespace

void ArgParser::reject_unread() const {
  bool unread = false;
  for (const auto& [k, v] : args_) {
    if (read_.count(k) != 0) continue;
    std::cerr << "unknown flag --" << k << "\n";
    unread = true;
  }
  if (unread) exit_usage();
}

void bad_value(const std::string& flag, const std::string& text) {
  std::cerr << "bad value for --" << flag << ": " << text << "\n";
  exit_usage();
}

void read_trace_flags(const ArgParser& args) {
  if (args.get_int("trace", 0) != 0) Tracer::global().set_enabled(true);
  Tracer::global().set_max_events_per_thread(
      static_cast<std::size_t>(args.get_int("trace-ring", 4096, 1, kMaxCount)));
}

SloFlag read_slo_flag(const ArgParser& args, const std::string& program) {
  SloFlag flag;
  flag.path = args.get_string("slo", "");
  std::string error;
  if (!flag.path.empty() && !load_slo_budget(flag.path, flag.budget, error)) {
    std::cerr << program << ": --slo: " << error << "\n";
    std::exit(1);
  }
  return flag;
}

bool split_host_port(const std::string& address, std::string& host,
                     std::uint16_t& port) {
  std::size_t colon = address.rfind(':');
  if (colon == std::string::npos) return false;
  host = address.substr(0, colon);
  return parse_number(address.substr(colon + 1), port) && port != 0;
}

void print_experiment_header(const std::string& artefact,
                             const std::string& description) {
  std::cout << "==============================================================\n"
            << " Reproducing: " << artefact << "\n"
            << " " << description << "\n"
            << "==============================================================\n";
}

std::string write_csv(const std::string& out_dir, const std::string& name,
                      const TextTable& table) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  std::string path = out_dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return {};
  }
  out << table.render_csv();
  std::cout << "[csv] " << path << "\n";
  return path;
}

}  // namespace cosched
