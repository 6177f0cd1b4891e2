package serve

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/sim"
)

// fetchDump GETs a job's flight-recorder dump and returns the body,
// the X-Dump-Reason header, and the status code.
func fetchDump(t *testing.T, ts *httptest.Server, id string) ([]byte, string, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.Header.Get("X-Dump-Reason"), resp.StatusCode
}

// decodeDump asserts the bytes are a well-formed MNPUFR1 dump carrying
// at least one event.
func decodeDump(t *testing.T, b []byte) *recorder.Dump {
	t.Helper()
	d, err := recorder.Decode(b)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if d.Events() == 0 {
		t.Fatal("dump carries no events")
	}
	return d
}

// TestWatchdogFiresOnceAndCaptures: a job that lingers past the
// watchdog fraction of its deadline gets exactly one watchdog fire,
// which captures a decodable flight-recorder dump (not overwritten by
// the later timeout dump) and a CPU profile; and the server winds down
// without leaking the watchdog's goroutines.
func TestWatchdogFiresOnceAndCaptures(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	s := mustNew(t, Config{
		Workers:          1,
		Registry:         reg,
		WatchdogFraction: 0.2,
		WatchdogProfile:  30 * time.Millisecond,
	})
	s.simulate = func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())

	spec := ncfSpec()
	spec.TimeoutMS = 700 // watchdog arms at 140ms, deadline kills at 700ms
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusFailed {
		t.Fatalf("job status %s, want failed (timeout)", st)
	}

	if got := s.reg.Snapshot().Value("serve.watchdog_fires"); got != 1 {
		t.Errorf("serve.watchdog_fires = %d, want 1", got)
	}
	// Re-firing after the job ended must be a no-op: the first capture
	// owns the dump and the counter.
	s.watchdogFire(job)
	if got := s.reg.Snapshot().Value("serve.watchdog_fires"); got != 1 {
		t.Errorf("watchdog re-fire bumped the counter to %d", got)
	}

	// The watchdog's mid-run window won, not the timeout dump taken
	// when the deadline finally killed the job.
	b, reason, code := fetchDump(t, ts, v.ID)
	if code != http.StatusOK || reason != "watchdog" {
		t.Fatalf("dump status %d reason %q, want 200 %q", code, reason, "watchdog")
	}
	decodeDump(t, b)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Errorf("profile status %d, %d bytes; want a captured CPU profile", resp.StatusCode, len(prof))
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Workers, watchdog timers, and profile capture are all done; the
	// goroutine count must settle back to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", before, n)
	}
}

// TestWatchdogQuietOnFastJobs: a job that finishes before the fraction
// never fires the watchdog; its dump endpoint still serves the live
// window on demand, and the profile endpoint reports none exists.
func TestWatchdogQuietOnFastJobs(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1, WatchdogFraction: 0.9}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		return fakeResult(7), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := ncfSpec()
	spec.TimeoutMS = 60_000
	v, _ := postJob(t, ts, spec)
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusDone {
		t.Fatalf("job status %s", st)
	}
	if got := s.reg.Snapshot().Value("serve.watchdog_fires"); got != 0 {
		t.Errorf("serve.watchdog_fires = %d, want 0", got)
	}

	b, reason, code := fetchDump(t, ts, v.ID)
	if code != http.StatusOK || reason != "on-demand" {
		t.Fatalf("dump status %d reason %q, want 200 %q", code, reason, "on-demand")
	}
	decodeDump(t, b)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("profile for unwatched job returned %d, want 409", resp.StatusCode)
	}
}

// TestDumpOnCancellation: cancelling a running job captures its final
// window under the "cancelled" reason.
func TestDumpOnCancellation(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	job, _ := s.jobs.get(v.ID)
	// Wait until the worker has the job running before cancelling.
	for job.Status() != StatusRunning {
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusCancelled {
		t.Fatalf("job status %s", st)
	}

	b, reason, code := fetchDump(t, ts, v.ID)
	if code != http.StatusOK || reason != "cancelled" {
		t.Fatalf("dump status %d reason %q, want 200 %q", code, reason, "cancelled")
	}
	decodeDump(t, b)
}

// TestDumpOnPanic: a panicking simulation (an invariant trip under
// -tags=invariants is one) fails the job, and the recovery path
// captures the window under a "panic: ..." reason.
func TestDumpOnPanic(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		panic("invariant trip")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusFailed {
		t.Fatalf("job status %s", st)
	}
	if msg := job.View(false).Error; !strings.Contains(msg, "panic") || !strings.Contains(msg, "invariant trip") {
		t.Errorf("job error %q does not carry the panic", msg)
	}

	b, reason, code := fetchDump(t, ts, v.ID)
	if code != http.StatusOK || reason != "panic: invariant trip" {
		t.Fatalf("dump status %d reason %q", code, reason)
	}
	decodeDump(t, b)
}

// TestDumpUnavailable: unknown jobs 404; cache-served jobs never ran a
// simulation, so they have no recorder window to dump.
func TestDumpUnavailable(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(3), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, code := fetchDump(t, ts, "nope"); code != http.StatusNotFound {
		t.Errorf("dump for unknown job returned %d, want 404", code)
	}

	v, _ := postJob(t, ts, ncfSpec())
	waitTerminal(t, s, v.ID)
	v2, code := postJob(t, ts, ncfSpec())
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("resubmission not cached: %+v (code %d)", v2, code)
	}
	if _, _, code := fetchDump(t, ts, v2.ID); code != http.StatusConflict {
		t.Errorf("dump for cache-served job returned %d, want 409", code)
	}
}

// idEvent is one SSE event with its id field.
type idEvent struct {
	id   int64
	name string
}

// readSSEIDs consumes a whole event stream, returning the retry hint
// from the stream head and each event with its id.
func readSSEIDs(t *testing.T, ts *httptest.Server, path string) (retryMS int, evs []idEvent) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	retryMS = -1
	var cur idEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "retry: "):
			retryMS, err = strconv.Atoi(strings.TrimPrefix(line, "retry: "))
			if err != nil {
				t.Fatalf("bad retry line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "id: "):
			cur.id, err = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case line == "":
			if cur.name != "" {
				evs = append(evs, cur)
			}
			cur = idEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return retryMS, evs
}

// TestSSEReconnectIDs: on the job and the sweep stream alike, every
// event carries an id, ids climb monotonically, and a reconnecting
// client keeps climbing — the server never reissues an id the first
// connection saw, so Last-Event-ID comparisons stay meaningful. Both
// connections get the stream head's retry backoff hint and end with the
// terminal event.
func TestSSEReconnectIDs(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		return dualResult(11, 11), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	waitTerminal(t, s, v.ID)
	sw, err := s.StartSweep(context.Background(), SweepSpec{Workloads: []string{"gpt2"}, Sharing: []string{"+dwt"}})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	waitSweep(t, sw)

	for _, path := range []string{"/v1/jobs/" + v.ID + "/events", "/v1/sweeps/" + sw.ID + "/events"} {
		t.Run(path, func(t *testing.T) {
			last := int64(0)
			// The second connection replays the terminal state under
			// fresh, higher ids.
			for conn := 1; conn <= 2; conn++ {
				retry, evs := readSSEIDs(t, ts, path)
				if retry != sseRetryMS {
					t.Errorf("stream %d retry hint %d, want %d", conn, retry, sseRetryMS)
				}
				if len(evs) == 0 {
					t.Fatalf("stream %d carried no events", conn)
				}
				for _, e := range evs {
					if e.id <= last {
						t.Fatalf("stream %d: id %d (%q) not above %d", conn, e.id, e.name, last)
					}
					last = e.id
				}
				if evs[len(evs)-1].name != "result" {
					t.Errorf("stream %d terminal event %q, want result", conn, evs[len(evs)-1].name)
				}
			}
		})
	}
}

// TestWatchdogDumpValidatesAsTrace: the watchdog's dump must replay
// into a validated Chrome trace even though it was cut mid-run — the
// same sanitized-replay contract mnputrace -mode postmortem relies on.
func TestWatchdogDumpValidatesAsTrace(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1, WatchdogFraction: 0.1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		if c.Obs != nil {
			// A run cut mid-tile: the start has no matching finish yet.
			c.Obs.Emit(obs.Event{Cycle: 0, Kind: obs.KindRunStart, Core: -1, A: 1, Str: "static"})
			c.Obs.Emit(obs.Event{Cycle: 0, Kind: obs.KindCoreInfo, Core: 0, Str: "core0 ncf"})
			c.Obs.Emit(obs.Event{Cycle: 10, Kind: obs.KindTileStart, Core: 0, A: 1})
		}
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := ncfSpec()
	spec.TimeoutMS = 400
	v, _ := postJob(t, ts, spec)
	waitTerminal(t, s, v.ID)

	b, reason, code := fetchDump(t, ts, v.ID)
	if code != http.StatusOK || reason != "watchdog" {
		t.Fatalf("dump status %d reason %q", code, reason)
	}
	d := decodeDump(t, b)
	var trace bytes.Buffer
	if err := d.WriteChromeTrace(&trace); err != nil {
		t.Fatalf("postmortem replay failed: %v", err)
	}
	if _, err := obs.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Fatalf("postmortem trace invalid: %v", err)
	}
}
