#!/bin/sh
# postmortem_smoke.sh: end-to-end exercise of the post-mortem
# observability path, with the race detector and runtime invariants on.
#
# Boots mnpuserved (built -race -tags=invariants) with an aggressive
# anomaly watchdog, kills a heavier job mid-run, fetches its
# flight-recorder dump over HTTP, and validates the dump with
# `mnputrace -mode postmortem` (decode, Chrome-trace replay +
# validation, counter snapshot). A second job lingers long enough for
# the watchdog to fire, so the watchdog dump + CPU profile path and its
# structured log line are exercised too.
#
# Needs: curl. Uses only POSIX sh + grep/sed so it runs in CI images.
set -eu

ADDR="127.0.0.1:18932"
BASE="http://$ADDR"
TMP="${TMPDIR:-/tmp}/mnpusim_postmortem_smoke.$$"
mkdir -p "$TMP"

fail() {
	echo "postmortem-smoke: FAIL: $*" >&2
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

jfield() {
	sed -n 's/.*"'"$2"'":"\([^"]*\)".*/\1/p' "$1" | head -n 1
}

echo "postmortem-smoke: building binaries (-race -tags=invariants)"
go build -race -tags=invariants -o "$TMP/mnpuserved" ./cmd/mnpuserved
go build -o "$TMP/mnputrace" ./cmd/mnputrace

echo "postmortem-smoke: starting daemon on $ADDR (watchdog at 10% of timeout)"
"$TMP/mnpuserved" -addr "$ADDR" -workers 2 -drain-timeout 60s \
	-watchdog 0.1 -watchdog-profile 100ms \
	>"$TMP/served.log" 2>&1 &
SERVED_PID=$!

i=0
until curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "daemon never became healthy"
	kill -0 "$SERVED_PID" 2>/dev/null || fail "daemon exited during startup"
	sleep 0.1
done

echo "postmortem-smoke: killing a job mid-run and fetching its dump"
curl -fsS -X POST -d '{"workloads":["ncf","gpt2"],"scale":"small","sharing":"+dwt"}' \
	"$BASE/v1/jobs" >"$TMP/job1.json" || fail "submit rejected"
JOB1=$(jfield "$TMP/job1.json" id)
[ -n "$JOB1" ] || fail "no job id in $(cat "$TMP/job1.json")"
# Give the worker a moment to start emitting before the kill.
sleep 1
curl -fsS -X DELETE "$BASE/v1/jobs/$JOB1" >/dev/null || fail "cancel rejected"
i=0
while :; do
	curl -fsS "$BASE/v1/jobs/$JOB1" >"$TMP/poll1.json"
	ST=$(jfield "$TMP/poll1.json" status)
	[ "$ST" = cancelled ] && break
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "job1 never reached cancelled (last: $ST)"
	sleep 0.1
done
curl -fsS -D "$TMP/dump1.hdr" "$BASE/v1/jobs/$JOB1/dump" >"$TMP/job1.dump" ||
	fail "dump fetch failed"
grep -qi '^x-dump-reason: cancelled' "$TMP/dump1.hdr" ||
	fail "dump reason not cancelled: $(grep -i x-dump-reason "$TMP/dump1.hdr")"
[ -s "$TMP/job1.dump" ] || fail "empty dump"

echo "postmortem-smoke: validating the dump with mnputrace -mode postmortem"
"$TMP/mnputrace" -mode postmortem -in "$TMP/job1.dump" \
	-obs "$TMP/job1_window.json" -obs-counters "$TMP/job1_counters.txt" \
	>"$TMP/postmortem.out" || fail "postmortem render failed"
grep -q 'reason: *cancelled' "$TMP/postmortem.out" ||
	fail "summary missing reason: $(cat "$TMP/postmortem.out")"
grep -q 'valid:' "$TMP/postmortem.out" ||
	fail "rendered window not validated: $(cat "$TMP/postmortem.out")"
[ -s "$TMP/job1_counters.txt" ] || fail "empty counter snapshot"
"$TMP/mnputrace" -mode validate -in "$TMP/job1_window.json" >/dev/null ||
	fail "rendered window fails standalone validation"

echo "postmortem-smoke: arming the watchdog on a deadline-bound job"
curl -fsS -X POST \
	-d '{"workloads":["ncf","gpt2"],"scale":"small","sharing":"+dwt","no_translation":true,"timeout_ms":4000}' \
	"$BASE/v1/jobs" >"$TMP/job2.json" || fail "submit rejected"
JOB2=$(jfield "$TMP/job2.json" id)
i=0
while :; do
	curl -fsS "$BASE/v1/jobs/$JOB2" >"$TMP/poll2.json"
	ST=$(jfield "$TMP/poll2.json" status)
	case "$ST" in done | failed | cancelled) break ;; esac
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "job2 stuck in $ST"
	sleep 0.1
done
grep -q "watchdog fired" "$TMP/served.log" ||
	fail "no watchdog log line (job2 ended $ST)"
curl -fsS -D "$TMP/dump2.hdr" "$BASE/v1/jobs/$JOB2/dump" >"$TMP/job2.dump" ||
	fail "watchdog dump fetch failed"
grep -qi '^x-dump-reason: watchdog' "$TMP/dump2.hdr" ||
	fail "dump reason not watchdog: $(grep -i x-dump-reason "$TMP/dump2.hdr")"
"$TMP/mnputrace" -mode postmortem -in "$TMP/job2.dump" >/dev/null ||
	fail "watchdog dump does not decode"
# The profile capture runs ~100ms past the fire; retry briefly in case
# the job reached a terminal state mid-capture.
i=0
until curl -fsS "$BASE/v1/jobs/$JOB2/profile" >"$TMP/job2.pprof" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "watchdog CPU profile never became available"
	sleep 0.1
done
[ -s "$TMP/job2.pprof" ] || fail "empty CPU profile"

echo "postmortem-smoke: SIGTERM drain"
kill -TERM "$SERVED_PID"
i=0
while kill -0 "$SERVED_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "daemon did not exit after SIGTERM"
	sleep 0.1
done
wait "$SERVED_PID" || fail "daemon exited non-zero"
SERVED_PID=""

echo "postmortem-smoke: OK"
