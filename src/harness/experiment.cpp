#include "harness/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

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

bool ArgParser::has(const std::string& name) const {
  for (const auto& [k, v] : args_)
    if (k == name) return true;
  return false;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  for (const auto& [k, v] : args_)
    if (k == name) return v;
  return fallback;
}

template <typename T>
T ArgParser::get_number(const std::string& name, T fallback) const {
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

Real ArgParser::get_real(const std::string& name, Real fallback) const {
  return get_number(name, fallback);
}

void bad_value(const std::string& flag, const std::string& text) {
  std::cerr << "bad value for --" << flag << ": " << text << "\n";
  std::cout.flush();
  // _Exit, not exit: a binary may already run service threads that static
  // destructors would pull the globals out from under.
  std::_Exit(2);
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
