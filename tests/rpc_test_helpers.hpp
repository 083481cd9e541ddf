// Shared raw-wire helpers for the RPC and router tests: the exact bytes a
// peer of any protocol version would put on the wire, and the job fields
// admission must refuse.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "rpc/protocol.hpp"

namespace cosched::testhelpers {

/// One request/response exchange on an open connection. The request
/// envelope is the one a version-`version` peer wrote: versions 1 and 2
/// carried no trace_id.
inline ResponseEnvelope raw_exchange(
    Socket& raw, std::uint16_t version, MessageType type,
    std::uint64_t request_id, const std::vector<std::uint8_t>& body = {}) {
  WireWriter w;
  w.u16(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(request_id);
  if (version >= 3) w.u64(0);  // trace_id: let the server mint one
  w.bytes_raw(body);
  EXPECT_EQ(write_frame(raw, w.take(), Deadline::after(2.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame(raw, payload, Deadline::after(5.0)), FrameStatus::Ok);
  ResponseEnvelope response;
  EXPECT_TRUE(decode_response(payload, response));
  return response;
}

/// Same, over a fresh connection to 127.0.0.1:`port`.
inline ResponseEnvelope raw_exchange(
    std::uint16_t port, std::uint16_t version, MessageType type,
    std::uint64_t request_id, const std::vector<std::uint8_t>& body = {}) {
  NetStatus net = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", port, Deadline::after(2.0),
                                  net);
  EXPECT_EQ(net, NetStatus::Ok);
  return raw_exchange(raw, version, type, request_id, body);
}

/// v1 and v8 peers (the oldest wire and the last before the current one)
/// get VersionMismatch answered in the current version, and the session
/// stays open: a current-version request on the same socket is served.
inline void expect_old_versions_refused(std::uint16_t port) {
  NetStatus net = NetStatus::Ok;
  Socket raw = Socket::connect_to("127.0.0.1", port, Deadline::after(2.0),
                                  net);
  ASSERT_EQ(net, NetStatus::Ok);
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{8}}) {
    ResponseEnvelope refused =
        raw_exchange(raw, version, MessageType::GetMetrics, version);
    EXPECT_EQ(refused.status, RpcStatus::VersionMismatch) << "v" << version;
    EXPECT_EQ(refused.version, kProtocolVersion);
    EXPECT_EQ(refused.request_id, version);
    EXPECT_TRUE(refused.body.empty());
  }
  ResponseEnvelope served =
      raw_exchange(raw, kProtocolVersion, MessageType::GetMetrics, 8);
  EXPECT_EQ(served.status, RpcStatus::Ok) << served.error;
  WireReader r(served.body);
  MetricsResponse metrics;
  EXPECT_TRUE(decode(r, metrics) && r.complete());
}

/// Well-formed SubmitJob bodies whose fields fall outside the model's
/// domain (trace_job_fields_valid); each must be answered InvalidJob.
inline std::vector<TraceJob> out_of_domain_jobs() {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  std::vector<TraceJob> jobs;
  auto add = [&](auto mutate) {
    TraceJob job;
    job.name = "tenantBad/job" + std::to_string(jobs.size());
    job.work = 4.0;
    mutate(job);
    jobs.push_back(job);
  };
  add([&](TraceJob& j) { j.miss_rate = 1.5; });
  add([&](TraceJob& j) { j.miss_rate = nan; });
  add([&](TraceJob& j) { j.sensitivity = -1.0; });
  add([&](TraceJob& j) { j.sensitivity = nan; });
  add([&](TraceJob& j) { j.arrival_time = nan; });
  add([&](TraceJob& j) { j.arrival_time = inf; });
  add([&](TraceJob& j) { j.work = inf; });
  add([&](TraceJob& j) { j.work = nan; });
  return jobs;
}

}  // namespace cosched::testhelpers
