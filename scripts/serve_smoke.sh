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
# error envelope and the X-Request-Id/Server-Timing response headers,
# runs a sampled quad sweep under a fixed traceparent (15 units and an
# aggregated result, a trace that `mnputrace -mode spans` accepts with
# its sweep-coordination span) and repeats it (all cache hits, no new
# simulation), cancels an in-flight heavier job, and finally SIGTERMs
# the daemon and requires a clean drain (exit 0).
#
# Needs: curl. Uses only POSIX sh + grep/sed/awk so it runs in CI images.
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

# A daemon still alive here belongs to a failed run: kill it outright
# and reap it, so no daemon outlives the script draining for up to its
# -drain-timeout.
cleanup() {
	if [ -n "${SERVED_PID:-}" ]; then
		kill -KILL "$SERVED_PID" 2>/dev/null || true
		wait "$SERVED_PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT

# jfield FILE KEY -> value of a top-level string field ("key":"value").
jfield() {
	sed -n 's/.*"'"$2"'":"\([^"]*\)".*/\1/p' "$1" | head -n 1
}

# jnum FILE KEY -> value of a numeric field ("key":123).
jnum() {
	sed -n 's/.*"'"$2"'":\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

# metric NAME -> the counter's value from /metrics (0 if absent).
metric() {
	curl -fsS "$BASE/metrics" | awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }'
}

# sweep_wait ID -> polls until the sweep is terminal, leaving its last
# view in $TMP/sweep_poll.json and its status in ST.
sweep_wait() {
	i=0
	while :; do
		curl -fsS "$BASE/v1/sweeps/$1" >"$TMP/sweep_poll.json"
		ST=$(jfield "$TMP/sweep_poll.json" status)
		case "$ST" in done | failed | cancelled) return 0 ;; esac
		i=$((i + 1))
		[ "$i" -gt 1200 ] && fail "sweep $1 stuck in $ST"
		sleep 0.1
	done
}

echo "serve-smoke: building binaries"
go build -o "$TMP/mnpuserved" ./cmd/mnpuserved
go build -o "$TMP/mnpusim" ./cmd/mnpusim
go build -o "$TMP/mnpuload" ./cmd/mnpuload
go build -o "$TMP/mnputrace" ./cmd/mnputrace

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
curl -s "$BASE/v1/nope" >"$TMP/err3.json"
grep -q '"error":{"code":"not_found"' "$TMP/err3.json" ||
	fail "unknown-route body is not the error envelope: $(cat "$TMP/err3.json")"

echo "serve-smoke: checking the request-ID and Server-Timing headers"
curl -fsSi "$BASE/v1/healthz" >"$TMP/headers.txt"
grep -qi '^x-request-id:' "$TMP/headers.txt" || fail "response missing X-Request-Id"
grep -qi '^server-timing: total;dur=' "$TMP/headers.txt" || fail "response missing Server-Timing"

echo "serve-smoke: running a traced sampled quad sweep"
TRACE=4bf92f3577b34da6a3ce929d0e0e4736
SWEEP='{"cores":4,"workloads":["ncf","gpt2","alex"],"scale":"tiny","sample":3}'
curl -fsS -X POST -H "traceparent: 00-$TRACE-00f067aa0ba902b7-01" -d "$SWEEP" \
	"$BASE/v1/sweeps" >"$TMP/sweep1.json" || fail "sweep submit rejected"
SW1=$(jfield "$TMP/sweep1.json" id)
TOTAL=$(jnum "$TMP/sweep1.json" total)
[ -n "$SW1" ] || fail "no sweep id in $(cat "$TMP/sweep1.json")"
[ "$TOTAL" = 15 ] || fail "sweep expanded to $TOTAL units, want 15 (3 mixes x 4 levels + 3 ideals)"
sweep_wait "$SW1"
[ "$ST" = done ] || fail "sweep1 ended $ST: $(cat "$TMP/sweep_poll.json")"
grep -q '"result":{' "$TMP/sweep_poll.json" || fail "done sweep has no aggregated result"

echo "serve-smoke: validating the sweep's trace with mnputrace -mode spans"
curl -fsS "$BASE/v1/traces/$TRACE" >"$TMP/trace.json" ||
	fail "GET /v1/traces/$TRACE failed"
grep -q '"name":"sweep coordinate"' "$TMP/trace.json" ||
	fail "trace missing the sweep-coordination span"
"$TMP/mnputrace" -mode spans -in "$TMP/trace.json" -obs "$TMP/spans.json" \
	>"$TMP/spans.txt" || fail "mnputrace -mode spans rejected the trace"
sed 's/^/  /' "$TMP/spans.txt"

echo "serve-smoke: repeating the sweep — must be all cache hits"
SIMS=$(metric serve_simulations)
curl -fsS -X POST -d "$SWEEP" "$BASE/v1/sweeps" >"$TMP/sweep2.json" ||
	fail "repeat sweep submit rejected"
sweep_wait "$(jfield "$TMP/sweep2.json" id)"
[ "$ST" = done ] || fail "repeat sweep ended $ST: $(cat "$TMP/sweep_poll.json")"
HITS=$(jnum "$TMP/sweep_poll.json" cache_hits)
[ "$HITS" = "$TOTAL" ] || fail "repeat sweep cache hits = $HITS, want $TOTAL"
SIMS2=$(metric serve_simulations)
[ "$SIMS2" = "$SIMS" ] || fail "repeat sweep ran new simulations ($SIMS -> $SIMS2)"

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
