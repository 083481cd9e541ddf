// Shared factories for search/IP/baseline tests, the global-tracer reset
// and Chrome-trace readers the observability tests share, and the seeded
// input mutator of the hardened-input tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/builders.hpp"
#include "core/degradation_models.hpp"
#include "core/problem.hpp"
#include "obs/trace.hpp"

namespace cosched::testhelpers {

/// Random serial-only synthetic problem.
inline Problem random_serial_problem(std::int32_t jobs, std::uint32_t cores,
                                     std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = jobs;
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Random mix of serial and PE jobs.
inline Problem random_pe_problem(std::int32_t serial,
                                 std::vector<std::int32_t> parallel_sizes,
                                 std::uint32_t cores, std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = serial;
  spec.parallel_job_sizes = std::move(parallel_sizes);
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Random mix with PC jobs (2D decomposition, comm volumes sized so the
/// comm term is of the same order as contention).
inline Problem random_pc_problem(std::int32_t serial,
                                 std::vector<std::int32_t> parallel_sizes,
                                 std::uint32_t cores, std::uint64_t seed) {
  SyntheticProblemSpec spec;
  spec.cores = cores;
  spec.serial_jobs = serial;
  spec.parallel_job_sizes = std::move(parallel_sizes);
  spec.parallel_with_comm = true;
  spec.seed = seed;
  return build_synthetic_problem(spec);
}

/// Restores the global tracer to its out-of-the-box state; the tracer is a
/// process singleton, so every test that touches it cleans up through this.
inline void reset_global_tracer() {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.set_max_events_per_thread(65536);
  Tracer::set_current_context(TraceContext{});
  tracer.reset();
}

/// The records of an export_chrome_json() array (or a merge of such
/// arrays), split on the exporter's ",\n" joints.
inline std::vector<std::string> chrome_records(const std::string& json) {
  std::vector<std::string> records;
  if (json.size() < 3) return records;
  std::string body = json.substr(1, json.rfind(']') - 1);
  for (std::size_t pos = 0; pos < body.size();) {
    std::size_t end = body.find(",\n", pos);
    if (end == std::string::npos) end = body.size();
    records.push_back(body.substr(pos, end - pos));
    pos = end + 2;
  }
  return records;
}

/// The number after `"key":` in a Chrome record; -1 when it is absent.
inline double chrome_number(const std::string& record, const std::string& key) {
  std::size_t at = record.find("\"" + key + "\":");
  return at == std::string::npos
             ? -1.0
             : std::strtod(record.c_str() + at + key.size() + 3, nullptr);
}

/// `json` without its wall-clock fields ("ts", "dur"). What is left —
/// names, tids, args and record order — is deterministic for a
/// deterministic event sequence.
inline std::string without_wall_times(std::string json) {
  // Erases every `"ts":<n>,` ("ts" is never last in a record) and every
  // `,"dur":<n>`.
  for (const std::string key : {"\"ts\":", ",\"dur\":"}) {
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
      std::size_t end = json.find_first_of(",}", at + key.size());
      if (key == "\"ts\":") ++end;
      json.erase(at, end - at);
    }
  }
  return json;
}

/// True when `json` holds a span named exactly `name` whose args carry
/// `trace_id`.
inline bool span_carries_trace(const std::string& json,
                               const std::string& name,
                               std::uint64_t trace_id) {
  const std::string id = "\"trace_id\":" + std::to_string(trace_id);
  for (const std::string& record : chrome_records(json)) {
    if (record.rfind("{\"name\":\"" + name + "\",", 0) != 0) continue;
    for (std::size_t at = record.find(id); at != std::string::npos;
         at = record.find(id, at + 1)) {
      char next = record[at + id.size()];
      if (next == ',' || next == '}') return true;
    }
  }
  return false;
}

/// Seeded mutation of a valid input: runs `check` (true = the input was
/// accepted) on every prefix of `input`, then on 500 copies carrying 1-4
/// random byte flips or insertions, and expects both accepted and refused
/// cases. `Buffer` is std::string or std::vector<std::uint8_t>; the same
/// seed yields the same cases for either.
template <typename Buffer, typename Check>
void for_each_mutation(const Buffer& input, std::uint64_t seed, Check check) {
  using Byte = typename Buffer::value_type;
  std::size_t accepted = 0, cases = 0;
  auto run = [&](const Buffer& candidate) {
    ++cases;
    if (check(candidate)) ++accepted;
  };
  for (std::size_t cut = 0; cut <= input.size(); ++cut)
    run(Buffer(input.begin(),
               input.begin() + static_cast<std::ptrdiff_t>(cut)));
  static const char kSyntax[] = "{}[]\":,.-+e0123456789 \n\\{=}#";
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 500; ++round) {
    Buffer mutated = input;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      std::size_t at = rng() % (mutated.size() + 1);
      Byte byte = rng() % 2 == 0
                      ? static_cast<Byte>(kSyntax[rng() % (sizeof kSyntax - 1)])
                      : static_cast<Byte>(rng() % 256);
      if (rng() % 2 == 0 && at < mutated.size())
        mutated[at] = static_cast<Byte>(mutated[at] ^ (byte == 0 ? 1 : byte));
      else
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                       byte);
    }
    run(mutated);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, cases);
}

}  // namespace cosched::testhelpers
