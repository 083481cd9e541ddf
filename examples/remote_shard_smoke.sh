#!/usr/bin/env bash
# Multi-process RemoteShard smoke test.
#
# Launches two CoschedServer shard processes (rpc_server --shard-id 0/1),
# fronts them with a shard_router --remote deployment in a third process,
# and drives the router with benchmark_app --connect. The run fails unless
#   * the router's SLO watchdog, armed with a deliberately tight burn-rate
#     rule, walks the full lifecycle under injected overload: /alerts shows
#     the rule firing (fan-in entries for both shards stamped with their
#     ids), /healthz folds to degraded with the rule in firing_alerts, and
#     the alert resolves once the overload stops,
#   * every request succeeds,
#   * the router's GetMetrics fan-in reports exactly 2 shards whose summed
#     counters equal the fleet totals (checked by --expect-shards),
#   * a raw version-7 envelope gets VersionMismatch from a shard process and
#     from the router, on a session that stays open,
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

# The router's watchdog gets a deliberately absurd burn-rate rule: a
# 0.0001 ms latency budget makes every routed submit "bad", so any real
# traffic burns the error budget 10x over (objective 0.9) and the rule must
# fire — a deterministic overload injection without slowing anything down.
# It watches the router-side submit histogram, which health probes never
# touch, so the rule drains (and resolves) the moment submissions stop.
cat >"$OUT_DIR/alert_rules_tight.json" <<'EOF'
{"rules": [{
  "name": "smoke_latency_burn",
  "kind": "burn_rate",
  "severity": "critical",
  "histogram": "cosched_router_request_seconds",
  "budget_ms": 0.0001,
  "objective": 0.9,
  "fast_window_seconds": 3,
  "slow_window_seconds": 6,
  "burn_factor": 2,
  "for_seconds": 1,
  "clear_seconds": 2,
  "resolved_hold_seconds": 60
}]}
EOF

"$BIN_EX/shard_router" --port "$ROUTER_PORT" \
  --remote "$HOST:$SHARD_A_PORT,$HOST:$SHARD_B_PORT" --remote-cores 16 \
  --shard-timeout 300 --metrics-port "$ROUTER_HTTP_PORT" --trace 1 \
  --alert-rules "$OUT_DIR/alert_rules_tight.json" --tsdb-interval 0.5 \
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
# those replans carry the batch's context (under the overload backlog below
# replan commands coalesce and the context would be lost).
"$BIN_EX/rpc_client" --port "$ROUTER_PORT" --jobs 6 --trace-id "$TRACE_ID" \
  --name-prefix tenantZ/ >"$OUT_DIR/remote_traced_batch.log" 2>&1 \
  || { echo "remote_shard_smoke: traced batch failed" >&2; exit 1; }

# --- SLO watchdog lifecycle under injected overload ----------------------
# Sustained submissions make the tight burn rule breach both windows; the
# watchdog must walk inactive -> pending -> firing while the load runs.
FIRING=0
for i in $(seq 1 40); do
  "$BIN_EX/rpc_client" --port "$ROUTER_PORT" --jobs 10 \
    --name-prefix "tenantload$i/" >/dev/null 2>&1 || true
  ALERTS=$(http_get "$ROUTER_HTTP_PORT" /alerts)
  case "$ALERTS" in
    *'rule=smoke_latency_burn state=firing'*) FIRING=1; break ;;
  esac
  sleep 0.5
done
if [[ $FIRING -ne 1 ]]; then
  echo "remote_shard_smoke: watchdog never fired under overload" >&2
  echo "$ALERTS" >&2
  exit 1
fi

# The machine-readable snapshot ships with the CI artifacts. It must carry
# the firing rule plus the fan-in entries of both shards, stamped with
# their shard ids (the shards run the default watchdog rules).
http_get "$ROUTER_HTTP_PORT" "/alerts?format=json" \
  >"$OUT_DIR/remote_alerts_firing.json"
ALERTS_JSON=$(cat "$OUT_DIR/remote_alerts_firing.json")
for want in '"rule":"smoke_latency_burn"' '"state":"firing"' \
            '"shard":0' '"shard":1'; do
  case "$ALERTS_JSON" in
    *"$want"*) : ;;
    *)
      echo "remote_shard_smoke: /alerts JSON is missing $want:" >&2
      echo "$ALERTS_JSON" >&2
      exit 1
      ;;
  esac
done

# A firing watchdog demotes /healthz to degraded (transports are all up)
# and names the rule, so a dumb probe sees the page without parsing /alerts.
HEALTH_FIRING=$(http_get "$ROUTER_HTTP_PORT" /healthz)
case "$HEALTH_FIRING" in
  *'"status":"degraded"'*smoke_latency_burn*) : ;;
  *)
    echo "remote_shard_smoke: /healthz did not fold the firing alert:" >&2
    echo "$HEALTH_FIRING" >&2
    exit 1
    ;;
esac

# Overload stops -> the windowed deltas drain -> the rule must resolve on
# its own (clear_seconds of hysteresis, then the resolved rest state).
RESOLVED=0
for _ in $(seq 1 40); do
  ALERTS=$(http_get "$ROUTER_HTTP_PORT" /alerts)
  case "$ALERTS" in
    *'rule=smoke_latency_burn state=resolved'*) RESOLVED=1; break ;;
    *'rule=smoke_latency_burn state=inactive'*) RESOLVED=1; break ;;
  esac
  sleep 0.5
done
if [[ $RESOLVED -ne 1 ]]; then
  echo "remote_shard_smoke: watchdog never resolved after the overload" >&2
  echo "$ALERTS" >&2
  exit 1
fi
http_get "$ROUTER_HTTP_PORT" "/alerts?format=json" \
  >"$OUT_DIR/remote_alerts_resolved.json"
echo "remote_shard_smoke: watchdog fired under overload and resolved after"

# Drive through the router. --expect-shards 2 makes benchmark_app fetch the
# fan-in metrics and fail unless the two remote shards account for every
# routed request and completion.
"$BIN_BENCH/benchmark_app" --mode open --rate 20 --requests 60 --warmup 10 \
  --depth 4 --tenants 8 --connect "$HOST:$ROUTER_PORT" --expect-shards 2 \
  --bench-out "$OUT_DIR/BENCH_remote_smoke.json"
BENCH_STATUS=$?

"$BIN_EX/rpc_client" --port "$ROUTER_PORT" \
  --trace-dump "$OUT_DIR/remote_trace_merged.json" \
  --trace-text "$OUT_DIR/remote_trace_merged.txt" \
  || { echo "remote_shard_smoke: trace dump failed" >&2; exit 1; }

# The merged timeline: router span and shard replan span share the id, the
# shard's section is namespaced onto its own Perfetto pid, and flow events
# with the id exist on both sides of the process boundary.
python3 - "$OUT_DIR" "$TRACE_ID" "$SHARD_A_PORT" "$ROUTER_PORT" <<'EOF' || exit 1
import re, socket, struct, sys
out_dir, trace_id = sys.argv[1], sys.argv[2]

# One wire version: a raw CSC1 frame carrying a version-7 GetMetrics
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
        assert exchange(c, 7, 70) == 1, f'{name}: v7 not VersionMismatch'
        assert exchange(c, 8, 80) == 0, f'{name}: session not kept open'
print('OK: v7 envelope refused with VersionMismatch by shard and router')

text = open(f'{out_dir}/remote_trace_merged.txt').read()
assert re.search(rf'span router\.request.*trace={trace_id}\b', text), \
    'router span does not carry the batch trace id'
assert re.search(rf'span shard\d+/online\.replan.*trace={trace_id}\b', text), \
    'no shard replan span carries the batch trace id'
chrome = open(f'{out_dir}/remote_trace_merged.json').read()
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
merged = open(f'{out_dir}/remote_trace_merged.txt').read()
assert trace != '0' and re.search(
    rf'span shard\d+/online\.replan.*trace={trace}\b', merged), \
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
echo "remote_shard_smoke: PASS (2 remote shards, fan-in + merged trace + alert lifecycle + degraded health verified)"
