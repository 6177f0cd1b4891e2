#!/bin/sh
# serve_smoke.sh: end-to-end exercise of the simulation service.
#
# Boots mnpuserved, runs a tiny dual-core job to completion through the
# typed client (cmd/mnpuload), checks the served result bytes
# equal `mnpusim -json` for the same config, finds the job through
# GET /v1/jobs?status=done, streams its SSE feed and requires the
# terminal "result" event's payload to byte-match the result endpoint
# (plus an "attribution" event carrying the stall-cycle breakdown),
# checks an identical resubmission is answered from the
# content-addressed cache (no second simulation), spot-checks the /v1
# error envelope, cancels an in-flight heavier job, and finally
# SIGTERMs the daemon and requires a clean drain (exit 0).
#
# Needs: curl. Uses only POSIX sh + grep/sed so it runs in CI images.
set -eu

ADDR="127.0.0.1:18931"
BASE="http://$ADDR"
TMP="${TMPDIR:-/tmp}/mnpusim_serve_smoke.$$"
mkdir -p "$TMP"

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	[ -f "$TMP/served.log" ] && sed 's/^/  daemon: /' "$TMP/served.log" >&2
	exit 1
}

cleanup() {
	[ -n "${SERVED_PID:-}" ] && kill "$SERVED_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

# jfield FILE KEY -> value of a top-level string field ("key":"value").
jfield() {
	sed -n 's/.*"'"$2"'":"\([^"]*\)".*/\1/p' "$1" | head -n 1
}

echo "serve-smoke: building binaries"
go build -o "$TMP/mnpuserved" ./cmd/mnpuserved
go build -o "$TMP/mnpusim" ./cmd/mnpusim
go build -o "$TMP/mnpuload" ./cmd/mnpuload

echo "serve-smoke: starting daemon on $ADDR"
"$TMP/mnpuserved" -addr "$ADDR" -workers 1 -drain-timeout 60s \
	>"$TMP/served.log" 2>&1 &
SERVED_PID=$!

i=0
until curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "daemon never became healthy"
	kill -0 "$SERVED_PID" 2>/dev/null || fail "daemon exited during startup"
	sleep 0.1
done

SPEC='{"workloads":["ncf","gpt2"],"scale":"tiny","sharing":"static"}'

echo "serve-smoke: running tiny dual-core job via the typed client"
"$TMP/mnpuload" -addr "$BASE" -workloads ncf,gpt2 -scale tiny \
	-sharing static >"$TMP/served_result.json" ||
	fail "mnpuload failed"

echo "serve-smoke: comparing served result against mnpusim -json"
"$TMP/mnpusim" -json -workloads ncf,gpt2 -scale tiny -sharing static \
	>"$TMP/cli_result.json"
cmp "$TMP/served_result.json" "$TMP/cli_result.json" ||
	fail "served result differs from mnpusim -json"

echo "serve-smoke: finding the job through GET /v1/jobs"
curl -fsS "$BASE/v1/jobs?status=done" >"$TMP/list.json"
JOB1=$(jfield "$TMP/list.json" id)
[ -n "$JOB1" ] || fail "done job not listed: $(cat "$TMP/list.json")"

echo "serve-smoke: streaming SSE events for the finished job"
curl -fsS -N "$BASE/v1/jobs/$JOB1/events" >"$TMP/events.txt" ||
	fail "events stream failed"
grep -q '^event: progress$' "$TMP/events.txt" ||
	fail "no progress event in stream: $(cat "$TMP/events.txt")"
grep -q '^event: attribution$' "$TMP/events.txt" ||
	fail "no attribution event in stream: $(cat "$TMP/events.txt")"
grep -q '"total_cycles"' "$TMP/events.txt" ||
	fail "attribution payload missing bucket data"
# The terminal result event's data bytes must equal the result endpoint.
awk '/^event: result$/ { want = 1; next }
	want && sub(/^data: /, "") { printf "%s", $0; exit }' \
	"$TMP/events.txt" >"$TMP/sse_result.json"
cmp "$TMP/sse_result.json" "$TMP/served_result.json" ||
	fail "SSE terminal event differs from result endpoint bytes"

echo "serve-smoke: resubmitting — must be a cache hit"
curl -fsS -X POST -d "$SPEC" "$BASE/v1/jobs" >"$TMP/job2.json"
grep -q '"cached":true' "$TMP/job2.json" ||
	fail "resubmission not served from cache: $(cat "$TMP/job2.json")"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
grep -q '^serve_simulations 1$' "$TMP/metrics.txt" ||
	fail "expected exactly 1 simulation, got: $(grep '^serve_' "$TMP/metrics.txt" | tr '\n' ' ')"

echo "serve-smoke: spot-checking the /v1 error envelope"
curl -s "$BASE/v1/jobs/j999999" >"$TMP/err.json"
grep -q '"error":{"code":"not_found"' "$TMP/err.json" ||
	fail "404 body is not the error envelope: $(cat "$TMP/err.json")"
curl -s -X POST -d '{"workloads":["bogus"]}' "$BASE/v1/jobs" >"$TMP/err2.json"
grep -q '"code":"invalid_request"' "$TMP/err2.json" ||
	fail "400 body is not the error envelope: $(cat "$TMP/err2.json")"

echo "serve-smoke: cancelling an in-flight heavier job"
curl -fsS -X POST -d '{"workloads":["ncf","gpt2"],"scale":"small","sharing":"+dwt"}' \
	"$BASE/v1/jobs" >"$TMP/job3.json"
JOB3=$(jfield "$TMP/job3.json" id)
curl -fsS -X DELETE "$BASE/v1/jobs/$JOB3" >/dev/null
i=0
while :; do
	curl -fsS "$BASE/v1/jobs/$JOB3" >"$TMP/poll3.json"
	ST=$(jfield "$TMP/poll3.json" status)
	[ "$ST" = cancelled ] && break
	[ "$ST" = done ] || [ "$ST" = failed ] &&
		fail "job3 ended $ST instead of cancelled"
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "job3 never reached cancelled (last: $ST)"
	sleep 0.1
done

echo "serve-smoke: SIGTERM drain"
kill -TERM "$SERVED_PID"
i=0
while kill -0 "$SERVED_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "daemon did not exit after SIGTERM"
	sleep 0.1
done
wait "$SERVED_PID" || fail "daemon exited non-zero"
grep -q "drained cleanly" "$TMP/served.log" || fail "no clean-drain message"
SERVED_PID=""

echo "serve-smoke: OK"
