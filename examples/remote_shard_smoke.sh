#!/usr/bin/env bash
# Multi-process RemoteShard smoke test.
#
# Launches two CoschedServer shard processes (rpc_server --shard-id 0/1),
# fronts them with a shard_router --remote deployment in a third process,
# and drives the router with benchmark_app --connect. The run fails unless
#   * every request succeeds,
#   * the router's GetMetrics fan-in reports exactly 2 shards whose summed
#     counters equal the fleet totals (checked by --expect-shards),
#   * a raw version-10 envelope gets VersionMismatch from a shard process and
#     from the router, on a session that stays open (version 11 is served),
#   * a TraceDump against the router returns the merged fabric timeline:
#     a correlated batch's trace id appears both on the router's request
#     span and on a shard's replan span (namespaced shard<k>/, on its own
#     Perfetto pid, linked by flow events with the same id),
#   * the router's /healthz answers ok with both shards up, then degraded
#     after one shard process is killed, and /debug/profile serves a
#     non-empty collapsed stack,
#   * the router and the surviving shard shut down cleanly over RPC.
#
# Usage: examples/remote_shard_smoke.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
BIN_EX="$BUILD_DIR/examples"
BIN_BENCH="$BUILD_DIR/bench"
HOST=127.0.0.1
SHARD_A_PORT="${SHARD_A_PORT:-7731}"
SHARD_B_PORT="${SHARD_B_PORT:-7732}"
ROUTER_PORT="${ROUTER_PORT:-7733}"
ROUTER_HTTP_PORT="${ROUTER_HTTP_PORT:-7734}"
OUT_DIR="${OUT_DIR:-traces}"
TRACE_ID=48879  # 0xBEEF: the correlated batch below is tagged with it
mkdir -p "$OUT_DIR"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

wait_port() {
  local port="$1" tries=50
  while ((tries-- > 0)); do
    if (exec 3<>"/dev/tcp/$HOST/$port") 2>/dev/null; then
      exec 3>&- 3<&-
      return 0
    fi
    sleep 0.2
  done
  echo "remote_shard_smoke: port $port never came up" >&2
  return 1
}

# Plain HTTP/1.0 GET over /dev/tcp (no curl dependency): prints the whole
# response, status line included.
http_get() {
  local port="$1" path="$2"
  exec 3<>"/dev/tcp/$HOST/$port" || return 1
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
  cat <&3
  exec 3>&- 3<&-
}

# Shard processes: virtual-time mode so arrivals come from the submitted
# stamps (deterministic load), generous deadline so a drain that has to
# finish the whole backlog cannot time out, HTTP side door disabled (two
# processes would race for the default metrics port). Tracing on, so the
# router's TraceDump fan-in has shard timelines to pull.
"$BIN_EX/rpc_server" --port "$SHARD_A_PORT" --shard-id 0 --virtual 1 \
  --machines 4 --cores 4 --deadline 300 --metrics-port -1 --trace 1 \
  --out "$OUT_DIR/remote_shard0" >"$OUT_DIR/remote_shard0.log" 2>&1 &
PIDS+=($!)
"$BIN_EX/rpc_server" --port "$SHARD_B_PORT" --shard-id 1 --virtual 1 \
  --machines 4 --cores 4 --deadline 300 --metrics-port -1 --trace 1 \
  --out "$OUT_DIR/remote_shard1" >"$OUT_DIR/remote_shard1.log" 2>&1 &
SHARD_B_PID=$!
PIDS+=($SHARD_B_PID)
wait_port "$SHARD_A_PORT" || exit 1
wait_port "$SHARD_B_PORT" || exit 1

"$BIN_EX/shard_router" --port "$ROUTER_PORT" \
  --remote "$HOST:$SHARD_A_PORT,$HOST:$SHARD_B_PORT" --remote-cores 16 \
  --shard-timeout 300 --metrics-port "$ROUTER_HTTP_PORT" --trace 1 \
  >"$OUT_DIR/remote_router.log" 2>&1 &
PIDS+=($!)
wait_port "$ROUTER_PORT" || exit 1
wait_port "$ROUTER_HTTP_PORT" || exit 1

# Both shards up: /healthz must fold the fleet to ok.
HEALTH_OK=$(http_get "$ROUTER_HTTP_PORT" /healthz)
case "$HEALTH_OK" in
  *'"status":"ok"'*) : ;;
  *)
    echo "remote_shard_smoke: expected ok /healthz, got:" >&2
    echo "$HEALTH_OK" >&2
    exit 1
    ;;
esac

# A correlated batch: one tenant (so one shard), every request stamped with
# a fixed trace id. The id must survive the client -> router -> RemoteShard
# -> shard-server hops and come back in the merged TraceDump. Submitted as
# the FIRST traffic: its submissions trigger the first admission replans, so
# those replans carry the batch's context.
"$BIN_EX/rpc_client" --port "$ROUTER_PORT" --jobs 6 --trace-id "$TRACE_ID" \
  --name-prefix tenantZ/ >"$OUT_DIR/remote_traced_batch.log" 2>&1 \
  || { echo "remote_shard_smoke: traced batch failed" >&2; exit 1; }

# Drive through the router. --expect-shards 2 makes benchmark_app fetch the
# fan-in metrics and fail unless the two remote shards account for every
# routed request and completion.
"$BIN_BENCH/benchmark_app" --mode open --rate 20 --requests 60 --warmup 10 \
  --depth 4 --tenants 8 --connect "$HOST:$ROUTER_PORT" --expect-shards 2 \
  --out "$OUT_DIR" --bench-out "$OUT_DIR/BENCH_remote_smoke.json"
BENCH_STATUS=$?

"$BIN_EX/rpc_client" --port "$ROUTER_PORT" \
  --trace-dump "$OUT_DIR/remote_trace_merged.json" \
  || { echo "remote_shard_smoke: trace dump failed" >&2; exit 1; }

# The merged timeline: router span and shard replan span share the id, the
# shard's section is namespaced onto its own Perfetto pid, and flow events
# with the id exist on both sides of the process boundary.
python3 - "$OUT_DIR" "$TRACE_ID" "$SHARD_A_PORT" "$ROUTER_PORT" <<'EOF' || exit 1
import re, socket, struct, sys
out_dir, trace_id = sys.argv[1], sys.argv[2]

# One wire version: a raw CSC1 frame carrying a version-10 GetMetrics
# envelope must be answered VersionMismatch by a shard process and by the
# router alike, with the session left open (a current-version GetMetrics on
# the same connection is then served).
def exchange(conn, version, request_id):
    envelope = struct.pack('>HBQQ', version, 4, request_id, 0)  # GetMetrics
    conn.sendall(struct.pack('>II', 0x43534331, len(envelope)) + envelope)
    head = b''
    while len(head) < 8:
        head += conn.recv(8 - len(head)) or sys.exit('peer closed the session')
    magic, length = struct.unpack('>II', head)
    assert magic == 0x43534331, f'bad reply magic {magic:#x}'
    payload = b''
    while len(payload) < length:
        payload += conn.recv(length - len(payload)) or sys.exit('short reply')
    _, _, echoed, _, status = struct.unpack('>HBQQB', payload[:20])
    assert echoed == request_id, f'request id {echoed} != {request_id}'
    return status
for name, port in (('shard', sys.argv[3]), ('router', sys.argv[4])):
    with socket.create_connection(('127.0.0.1', int(port)), timeout=30) as c:
        assert exchange(c, 10, 100) == 1, f'{name}: v10 not VersionMismatch'
        assert exchange(c, 11, 110) == 0, f'{name}: session not kept open'
print('OK: v10 envelope refused with VersionMismatch by shard and router')

# One record per line; a span carries its trace id in "args".
chrome = open(f'{out_dir}/remote_trace_merged.json').read()
def span_with_trace(name, trace):
    return re.search(rf'{{"name":"{name}",[^\n]*"args":{{[^\n]*"trace_id":{trace}[,}}]',
                     chrome)
assert span_with_trace(r'router\.request', trace_id), \
    'router span does not carry the batch trace id'
assert span_with_trace(r'shard\d+/online\.replan', trace_id), \
    'no shard replan span carries the batch trace id'
assert re.search(r'"name":"shard\d+/online\.replan"', chrome), \
    'merged chrome trace lost the namespaced shard spans'
flow_pids = set(re.findall(
    rf'"cat":"flow","ph":"[stf]","id":{trace_id},"ts":[0-9.]+,"pid":(\d+)',
    chrome))
assert len(flow_pids) >= 2, \
    f'flow events of trace {trace_id} span pids {flow_pids}, expected >= 2'
print(f'OK: merged trace stitched across pids {sorted(flow_pids)}')
EOF

# "Explain this placement" across processes: QueryJobTimeline for a job of
# the traced batch must cross router -> RemoteShard -> shard server and come
# back as a non-empty, time-ordered decision journal. The job id is global
# (rewritten by the router), pulled from the batch's submit log.
TRACED_JOB=$(sed -n 's/^job \([0-9][0-9]*\) .*/\1/p' \
  "$OUT_DIR/remote_traced_batch.log" | head -1)
if [[ -z "$TRACED_JOB" ]]; then
  echo "remote_shard_smoke: no job id in remote_traced_batch.log" >&2
  exit 1
fi
"$BIN_EX/rpc_client" --port "$ROUTER_PORT" --timeline "$TRACED_JOB" \
  >"$OUT_DIR/remote_timeline.txt" 2>&1 \
  || { echo "remote_shard_smoke: timeline query failed" >&2;
       cat "$OUT_DIR/remote_timeline.txt" >&2; exit 1; }

# The journal firehose of the router's own routing decisions, archived with
# the CI artifacts next to the merged trace.
http_get "$ROUTER_HTTP_PORT" "/debug/events" \
  >"$OUT_DIR/remote_journal_events.txt" || true
http_get "$ROUTER_HTTP_PORT" "/debug/events?job=$TRACED_JOB" \
  >"$OUT_DIR/remote_journal_job.txt" || true

python3 - "$OUT_DIR" "$TRACED_JOB" <<'EOF' || exit 1
import re, sys
out_dir, job = sys.argv[1], sys.argv[2]
text = open(f'{out_dir}/remote_timeline.txt').read()
events = [l for l in text.splitlines() if l.strip().startswith('t=')]
assert events, f'timeline for job {job} is empty:\n{text}'
kinds = [re.search(r'kind=(\S+)', l).group(1) for l in events]
assert 'admission' in kinds, f'no admission event in {kinds}'
assert 'placement' in kinds, f'no placement event in {kinds}'
times = [float(re.search(r't=([0-9.]+)', l).group(1)) for l in events]
assert times == sorted(times), f'timeline timestamps not monotonic: {times}'
for line in events:
    assert f'job={job} ' in line, f'event not rewritten to global id: {line}'
# Every decision carries the trace that made it: the placement's trace id
# must resolve into a replan span of the merged fabric TraceDump.
placement = events[kinds.index('placement')]
trace = re.search(r'trace=(\d+)', placement).group(1)
merged = open(f'{out_dir}/remote_trace_merged.json').read()
assert trace != '0' and re.search(
    rf'{{"name":"shard\d+/online\.replan",[^\n]*"args":{{[^\n]*"trace_id":{trace}[,}}]',
    merged), \
    f'placement trace id {trace} does not resolve in the merged TraceDump'
print(f'OK: job {job} explains itself across the process boundary '
      f'({len(events)} events, placement trace {trace})')
EOF

# The router profiles itself continuously: under load the collapsed stack
# must be non-empty (it ships with the CI artifacts for flamegraphs).
http_get "$ROUTER_HTTP_PORT" /debug/profile \
  >"$OUT_DIR/remote_router_profile.collapsed"
if ! grep -q "router.request" "$OUT_DIR/remote_router_profile.collapsed"; then
  echo "remote_shard_smoke: /debug/profile has no router.request samples" >&2
  exit 1
fi

# Kill one shard the hard way: /healthz must fold the fleet to degraded
# once the bounded-staleness health cache re-probes (2 s default).
kill -9 "$SHARD_B_PID" 2>/dev/null || true
DEGRADED=0
for _ in $(seq 1 30); do
  HEALTH=$(http_get "$ROUTER_HTTP_PORT" /healthz)
  case "$HEALTH" in
    *'"status":"degraded"'*) DEGRADED=1; break ;;
  esac
  sleep 0.5
done
if [[ $DEGRADED -ne 1 ]]; then
  echo "remote_shard_smoke: /healthz never reported degraded after kill" >&2
  echo "$HEALTH" >&2
  exit 1
fi

# Orderly teardown of the survivors: the router answers Shutdown itself (it
# does not forward it), so the remaining shard process is stopped directly.
"$BIN_EX/rpc_client" --port "$ROUTER_PORT" --shutdown 1 >/dev/null 2>&1
"$BIN_EX/rpc_client" --port "$SHARD_A_PORT" --shutdown 1 >/dev/null 2>&1

STATUS=0
for pid in "${PIDS[@]}"; do
  if [[ "$pid" == "$SHARD_B_PID" ]]; then
    wait "$pid" 2>/dev/null  # killed on purpose; nonzero is the point
    continue
  fi
  if ! wait "$pid"; then
    echo "remote_shard_smoke: process $pid exited nonzero" >&2
    STATUS=1
  fi
done
PIDS=()

if [[ $BENCH_STATUS -ne 0 ]]; then
  echo "remote_shard_smoke: benchmark_app exited $BENCH_STATUS" >&2
  cat "$OUT_DIR/remote_router.log" >&2 || true
  exit "$BENCH_STATUS"
fi
if [[ $STATUS -ne 0 ]]; then
  exit "$STATUS"
fi
echo "remote_shard_smoke: PASS (2 remote shards, fan-in + merged trace + profile + degraded health verified)"
