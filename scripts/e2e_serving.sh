#!/usr/bin/env bash
# End-to-end serving drill: boot morphd with a fault armed, fire
# concurrent clients at it, panic one query, deadline another, SIGTERM
# the daemon mid-service, and assert the typed taxonomy plus a clean
# drain. CI runs this; it also works locally:
#
#   ./scripts/e2e_serving.sh [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

ART="${1:-artifacts/serving}"
mkdir -p "$ART"
ADDR="127.0.0.1:7421"
BASE="http://$ADDR"

echo "== build"
go build -o "$ART/morphd" ./cmd/morphd
go build -o "$ART/morphcli" ./cmd/morphcli

echo "== boot morphd (chaos: first query panics at match 1)"
# panic@1 trips on the very first delivered match, then never again
# (the ordinal is crossed once): query 1 gets the typed panic error and
# every later query proves the worker pool survived it.
MORPH_FAULT=panic@1:e2e-chaos-probe \
  "$ART/morphd" -graph MI -scale 0.005 -listen "$ADDR" \
  -inflight 2 -queue 8 -client-inflight 4 -threads 2 \
  -drain-timeout 5s -querylog "$ART/queries.jsonl" \
  -sample-interval 200ms -slo-window 10s \
  2> "$ART/morphd.stderr" &
DAEMON=$!
trap 'kill -9 $DAEMON 2>/dev/null || true' EXIT

for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" > "$ART/health.json" 2>/dev/null; then break; fi
  if ! kill -0 $DAEMON 2>/dev/null; then
    echo "morphd died during startup:" >&2; cat "$ART/morphd.stderr" >&2; exit 1
  fi
  sleep 0.1
done
grep -q '"status":"ok"' "$ART/health.json" || { echo "unhealthy: $(cat "$ART/health.json")" >&2; exit 1; }
grep -q "CHAOS MODE" "$ART/morphd.stderr" || { echo "fault injector not armed" >&2; exit 1; }

echo "== panic injection: the first query fails typed, the server survives"
if "$ART/morphcli" query -addr "$BASE" -retries 0 -json triangle > "$ART/panic.json" 2> "$ART/panic.stderr"; then
  echo "panic-armed query unexpectedly succeeded" >&2; exit 1
fi
grep -q '"code": *"panic"' "$ART/panic.json" || { echo "no typed panic error:" >&2; cat "$ART/panic.json" >&2; exit 1; }
grep -q '"retryable": *false' "$ART/panic.json" || { echo "panic marked retryable" >&2; exit 1; }

echo "== concurrent queries after the contained panic"
pids=()
for p in triangle 4-cycle:v 4-star p4 triangle 4-cycle:v; do
  "$ART/morphcli" query -addr "$BASE" -client "tenant-$p" -deadline 60s -retries 3 "$p" \
    >> "$ART/concurrent.out" 2>> "$ART/concurrent.err" &
  pids+=($!)
done
fail=0
for pid in "${pids[@]}"; do wait "$pid" || fail=1; done
[ "$fail" = 0 ] || { echo "concurrent queries failed:" >&2; cat "$ART/concurrent.err" >&2; exit 1; }
grep -q "cache: hit\|cache: coalesced" "$ART/concurrent.out" \
  || { echo "repeated identical queries never hit the cache" >&2; exit 1; }

echo "== lean wire: a repeat query is one Content-Length reply without a report; morphcli still gets one"
curl -si -X POST -H 'Content-Type: application/json' -d '{"patterns":["triangle"]}' "$BASE/query" \
  | tr -d '\r' > "$ART/hit.http"
grep -q '"cache":"hit"' "$ART/hit.http" || { echo "repeat query was not a hit:" >&2; cat "$ART/hit.http" >&2; exit 1; }
grep -qi '^Content-Length: ' "$ART/hit.http" || { echo "hit reply has no Content-Length:" >&2; cat "$ART/hit.http" >&2; exit 1; }
if grep -qi '^Transfer-Encoding:' "$ART/hit.http" || grep -q '"report"' "$ART/hit.http"; then
  echo "hit reply is chunked or carries a report it was not asked for:" >&2; cat "$ART/hit.http" >&2; exit 1
fi
grep -q '"run_id":"r' "$ART/hit.http" || { echo "hit reply names no run" >&2; exit 1; }
"$ART/morphcli" query -addr "$BASE" -json triangle > "$ART/hit_report.json"
python3 - "$ART/hit_report.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["cache"] == "hit", f"morphcli's repeat query: cache {r['cache']}"
rep = r.get("report") or {}
assert rep.get("phase") == "done", f"morphcli query -json printed no completed report: {rep.get('phase')}"
assert rep.get("run_id") == r["run_id"], f"report of run {rep.get('run_id')}, result of run {r['run_id']}"
PY

echo "== cancel injection: a 1ms deadline dies typed, not hung"
# p5 mines for ~0.4 s on this graph; a query of a few milliseconds (p8 was
# one) can finish before its first block claim sees the deadline.
if "$ART/morphcli" query -addr "$BASE" -retries 0 -deadline 1ms -json p5 > "$ART/deadline.json" 2>/dev/null; then
  echo "1ms-deadline query unexpectedly succeeded" >&2; exit 1
fi
grep -Eq '"code": *"(deadline|canceled)"' "$ART/deadline.json" \
  || { echo "no typed deadline error:" >&2; cat "$ART/deadline.json" >&2; exit 1; }

echo "== hostile patterns: a superpattern closure too large to build is refused, the query answered"
# Codec text through server.ResolvePattern. The eager S-DAG of a 10-vertex
# path or a 12-vertex star never finished (admission ran it before any
# deadline applied); rare labels keep the mining itself trivial, so what
# is timed here is the transformation declining to morph.
for pat in 'n=10;e=0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9;l=28,28,28,28,28,28,28,28,28,28;v' \
           'n=12;e=0-1,0-2,0-3,0-4,0-5,0-6,0-7,0-8,0-9,0-10,0-11;l=27,28,28,28,28,28,28,28,28,28,28,28'; do
  timeout 30 "$ART/morphcli" query -addr "$BASE" -retries 0 -deadline 10s -json "$pat" > "$ART/hostile.json" 2> "$ART/hostile.err" || true
  grep -Eq '"counts"|"code": *"deadline"' "$ART/hostile.json" \
    || { echo "hostile pattern $pat: neither a result nor a typed deadline:" >&2; cat "$ART/hostile.json" "$ART/hostile.err" >&2; exit 1; }
done

echo "== a deadline inside one root's subtree: the unlabeled 10-vertex path dies typed within seconds and frees its worker"
# Unlabeled, every root's subtree of this path outlasts any deadline: the
# executor has to see the deadline inside a work block, not at the next one.
start=$(date +%s)
timeout 30 "$ART/morphcli" query -addr "$BASE" -retries 0 -deadline 1s -json \
  'n=10;e=0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9' > "$ART/deep.json" 2> "$ART/deep.err" || true
took=$(( $(date +%s) - start ))
grep -Eq '"code": *"deadline"' "$ART/deep.json" \
  || { echo "10-vertex path under a 1s deadline: no typed deadline:" >&2; cat "$ART/deep.json" "$ART/deep.err" >&2; exit 1; }
[ "$took" -lt 5 ] || { echo "10-vertex path outlived its 1s deadline by ${took}s" >&2; exit 1; }
curl -sf "$BASE/healthz" | grep -q '"in_flight":0' \
  || { echo "a worker is still held after the deadline: $(curl -sf "$BASE/healthz")" >&2; exit 1; }

echo "== stream order: a miss streams queued, then started, then its result"
curl -sN -X POST -d '{"patterns":["4-star"],"no_cache":true}' "$BASE/query" > "$ART/stream.ndjson"
python3 - "$ART/stream.ndjson" <<'PY'
import json, sys
types = [json.loads(l)["type"] for l in open(sys.argv[1]) if l.strip()]
assert types == ["queued", "started", "result"], f"a miss streamed {types}"
PY

echo "== observability under chaos: /slo burns budget, /timeseries has data"
curl -sf "$BASE/slo" > "$ART/slo_chaos.json"
curl -sf "$BASE/timeseries" > "$ART/timeseries.json"
python3 - "$ART/slo_chaos.json" "$ART/timeseries.json" <<'PY'
import json, math, sys
slo = json.load(open(sys.argv[1]))
# The panic and deadline failures above landed inside the 10s window:
# the availability budget must be burning, and sanely so.
assert slo["total"] >= 3, f"slo saw {slo['total']} queries, want >= 3"
assert slo["errors"] >= 2, f"slo saw {slo['errors']} errors, want >= 2 (panic + deadline)"
burn = slo["burn_rate"]
assert math.isfinite(burn) and burn > 0, f"burn rate {burn} not positive during chaos"
assert slo["error_burn_rate"] > 0, "error budget not burning despite injected failures"
phases = slo["phases"]
for ph in ("admit", "queue", "mine", "total"):
    assert ph in phases, f"missing phase {ph}"
assert phases["total"]["count"] >= slo["total"] - slo["errors"], "total phase under-observed"
assert phases["mine"]["count"] >= 1, "no mine-phase observations"
ts = json.load(open(sys.argv[2]))
series = ts["series"]
assert series, "/timeseries served no series"
q = series.get("server_queries_total", [])
assert q, f"no query-counter series; keys: {sorted(series)[:8]}..."
assert q[-1]["v"] >= 3, f"query counter series ends at {q[-1]['v']}, want >= 3"
assert any(k.endswith(":rate") for k in series), "no derived rate series"
assert any(k.endswith(":p95") for k in series), "no windowed quantile series"
print(f"   burn {burn:.2f} ({slo['errors']}/{slo['total']} errors), {len(series)} series")
PY

echo "== morphcli top renders a frame against the live daemon"
"$ART/morphcli" top -addr "$BASE" -once > "$ART/top.txt"
grep -q "burn rate" "$ART/top.txt" || { echo "top frame missing burn rate:" >&2; cat "$ART/top.txt" >&2; exit 1; }
grep -q "qps" "$ART/top.txt" || { echo "top frame missing qps" >&2; exit 1; }
grep -q "mine" "$ART/top.txt" || { echo "top frame missing phase rows" >&2; exit 1; }

echo "== burn rate returns to ~0 once the window slides past the chaos"
sleep 11
"$ART/morphcli" query -addr "$BASE" -retries 2 -nocache triangle > /dev/null
"$ART/morphcli" query -addr "$BASE" -retries 2 -nocache 4-star > /dev/null
curl -sf "$BASE/slo" > "$ART/slo_recovered.json"
python3 - "$ART/slo_recovered.json" <<'PY'
import json, sys
slo = json.load(open(sys.argv[1]))
assert slo["total"] >= 2, f"recovery window saw {slo['total']} queries"
assert slo["errors"] == 0, f"stale errors in recovery window: {slo['errors']}"
assert slo["error_burn_rate"] == 0, f"error burn {slo['error_burn_rate']} after recovery, want 0"
print(f"   recovered: burn {slo['burn_rate']:.2f} over {slo['total']} fresh queries")
PY

echo "== SIGTERM mid-service: graceful drain"
# Park a long query on the daemon so drain has a live straggler, then
# immediately signal. The straggler must come back typed (finished or
# canceled with partials), never hung, and the daemon must exit 0.
"$ART/morphcli" query -addr "$BASE" -retries 0 -deadline 60s -json p8 \
  > "$ART/straggler.json" 2>/dev/null &
STRAGGLER=$!
sleep 0.3
kill -TERM $DAEMON
if wait $STRAGGLER; then
  echo "   straggler finished before the drain deadline"
else
  grep -Eq '"code": *"(canceled|deadline)"' "$ART/straggler.json" \
    || { echo "straggler died untyped:" >&2; cat "$ART/straggler.json" >&2; exit 1; }
  echo "   straggler canceled typed at the drain deadline"
fi
wait $DAEMON || { echo "morphd exited nonzero after SIGTERM" >&2; cat "$ART/morphd.stderr" >&2; exit 1; }
trap - EXIT
grep -q "drained in" "$ART/morphd.stderr" || { echo "no drain confirmation:" >&2; cat "$ART/morphd.stderr" >&2; exit 1; }

echo "== query log survived the drain"
python3 - "$ART/queries.jsonl" <<'PY'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
assert events, "query log is empty"
assert all(e.get("run") for e in events), "query log event without a run ID"
assert any(e["msg"] == "completed" for e in events), "no completed run in the log"
assert any(e["msg"] in ("failed", "interrupted") for e in events), "no interrupted run in the log"
labels = {e.get("label", "") for e in events}
assert any(l.startswith("serve/") for l in labels), f"no serve-scoped runs: {labels}"
print(f"   {len(events)} events, labels {sorted(labels)}")
PY

echo "PASS: serving e2e"
