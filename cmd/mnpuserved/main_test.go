package main

import (
	"bytes"
	"context"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
)

// syncBuffer is a goroutine-safe writer for the daemon's stdout.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// daemon is one in-process mnpuserved run under test.
type daemon struct {
	base   string
	out    *syncBuffer
	cancel context.CancelFunc
	runErr chan error
}

// startDaemon boots run() on an ephemeral port and waits for the
// listening announcement.
func startDaemon(t *testing.T, extraArgs ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{out: &syncBuffer{}, cancel: cancel, runErr: make(chan error, 1)}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, extraArgs...)
	go func() { d.runErr <- run(ctx, args, d.out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(d.out.String()); m != nil {
			d.base = "http://" + m[1]
			return d
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; output:\n%s", d.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the daemon down via context cancellation (the signal
// path) and fails the test if it does not drain cleanly.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cancel()
	select {
	case err := <-d.runErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after shutdown")
	}
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, runs one
// real tiny job through the typed client, then shuts it down via
// context cancellation (the signal path) and checks it drains cleanly.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	d := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	cl := client.New(d.base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	view, err := cl.SubmitJob(ctx, api.JobSpec{Workloads: []string{"ncf"}, Scale: "tiny", Sharing: "static"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if view, err = cl.WaitJob(ctx, view.ID, 50*time.Millisecond); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if view.Status != api.StatusDone {
		t.Fatalf("job ended %s: %s", view.Status, view.Error)
	}

	// The job-keyed structured log recorded the run.
	if !strings.Contains(d.out.String(), "msg=\"job done\"") || !strings.Contains(d.out.String(), "job="+view.ID) {
		t.Errorf("structured job log missing; output:\n%s", d.out.String())
	}

	// The registry counted the job.
	reg, err := cl.Registry(ctx)
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	if reg["serve.jobs_done"] != 1 {
		t.Errorf("GET /v1/registry: serve.jobs_done = %d, want 1", reg["serve.jobs_done"])
	}

	// The opt-in debug listener serves pprof.
	dm := regexp.MustCompile(`debug_addr=(\S+)`).FindStringSubmatch(d.out.String())
	if dm == nil {
		t.Fatalf("debug listener never announced; output:\n%s", d.out.String())
	}
	if presp, err := http.Get("http://" + dm[1] + "/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	} else {
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			t.Errorf("pprof cmdline returned %d", presp.StatusCode)
		}
	}

	d.stop(t)
	if !strings.Contains(d.out.String(), "drained cleanly") {
		t.Errorf("missing drain confirmation; output:\n%s", d.out.String())
	}
}

// TestDaemonRestartWarmCache runs a job, restarts the daemon over the
// same -cache-dir, and verifies the second daemon serves the same
// result byte-identically from disk with zero new simulations.
func TestDaemonRestartWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	dir := t.TempDir()
	spec := api.JobSpec{Workloads: []string{"ncf"}, Scale: "tiny", Sharing: "static"}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	d1 := startDaemon(t, "-cache-dir", dir)
	cl := client.New(d1.base)
	v1, err := cl.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if v1, err = cl.WaitJob(ctx, v1.ID, 50*time.Millisecond); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if v1.Status != api.StatusDone {
		t.Fatalf("job ended %s: %s", v1.Status, v1.Error)
	}
	r1, err := cl.JobResult(ctx, v1.ID)
	if err != nil {
		t.Fatalf("JobResult: %v", err)
	}
	d1.stop(t)

	d2 := startDaemon(t, "-cache-dir", dir)
	defer d2.stop(t)
	cl = client.New(d2.base)
	st, err := cl.Healthz(ctx)
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if st.DiskCached == 0 {
		t.Fatal("restarted daemon warmed no disk entries")
	}
	v2, err := cl.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitJob (restart): %v", err)
	}
	if v2, err = cl.WaitJob(ctx, v2.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("WaitJob (restart): %v", err)
	}
	if v2.Status != api.StatusDone || !v2.Cached {
		t.Fatalf("restart job: status=%s cached=%v, want done from cache", v2.Status, v2.Cached)
	}
	r2, err := cl.JobResult(ctx, v2.ID)
	if err != nil {
		t.Fatalf("JobResult (restart): %v", err)
	}
	if !bytes.Equal(r1, r2) {
		t.Error("warm result bytes differ across restart")
	}
	if sims, ok, err := cl.MetricValue(ctx, "serve_simulations"); err != nil || !ok || sims != 0 {
		t.Errorf("restarted daemon simulations = %d (ok=%v, err=%v), want 0", sims, ok, err)
	}
}

// TestRunRejectsBadFlags covers flag errors surfacing as error returns,
// not panics or exits.
func TestRunRejectsBadFlags(t *testing.T) {
	out := &syncBuffer{}
	for _, args := range [][]string{
		{"-nope"},
		{"stray"},
		{"-addr", "999.999.999.999:0"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		{"-addr", "127.0.0.1:0", "-debug-addr", "999.999.999.999:0"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, args, out)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
