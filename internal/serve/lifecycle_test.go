package serve

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// TestRetention: with MaxJobs and MaxSweeps at 2, registering a third
// record forgets the oldest terminal one (it answers 404) but never a
// live one, even when the live one is older; once the live record ends
// it is the next to go.
func TestRetention(t *testing.T) {
	alex := workloads.MustByName("alex", workloads.ScaleTiny).Net.Name
	newServer := func(t *testing.T) (*Server, *client.Client, chan struct{}) {
		release := make(chan struct{})
		// Simulations with alex on core 0 hold until release.
		s := newStubServer(t, Config{Workers: 4, MaxJobs: 2, MaxSweeps: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
			if c.Nets[0].Name == alex {
				select {
				case <-release:
				case <-ctx.Done():
					return sim.Result{}, ctx.Err()
				}
			}
			return dualResult(100, 200), nil
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, client.New(ts.URL), release
	}
	ctx := context.Background()
	// retained reports each ID's presence as seen through the API.
	retained := func(t *testing.T, get func(id string) error, want map[string]bool) {
		t.Helper()
		for id, present := range want {
			err := get(id)
			switch {
			case present && err != nil:
				t.Errorf("%s: %v, want it retained", id, err)
			case !present && !client.IsNotFound(err):
				t.Errorf("%s: err %v, want 404 not_found", id, err)
			}
		}
	}

	t.Run("jobs", func(t *testing.T) {
		s, cl, release := newServer(t)
		get := func(id string) error { _, err := cl.Job(ctx, id); return err }
		submit := func(wl ...string) *Job {
			t.Helper()
			job, err := s.Submit(JobSpec{Workloads: wl, Scale: "tiny", Sharing: "+dwt"})
			if err != nil {
				t.Fatalf("Submit %v: %v", wl, err)
			}
			return job
		}
		live := submit("alex", "ncf")
		for live.Status() != StatusRunning {
			time.Sleep(time.Millisecond)
		}
		<-submit("ncf", "gpt2").Done()
		<-submit("gpt2", "ncf").Done()
		retained(t, get, map[string]bool{"j1": true, "j2": false, "j3": true})

		close(release)
		<-live.Done()
		<-submit("ncf", "ncf").Done()
		retained(t, get, map[string]bool{"j1": false, "j3": true, "j4": true})
	})

	t.Run("sweeps", func(t *testing.T) {
		s, cl, release := newServer(t)
		get := func(id string) error { _, err := cl.Sweep(ctx, id, false); return err }
		start := func(w string) *Sweep {
			t.Helper()
			sw, err := s.StartSweep(ctx, SweepSpec{Workloads: []string{w}, Sharing: []string{"+dwt"}})
			if err != nil {
				t.Fatalf("StartSweep %s: %v", w, err)
			}
			return sw
		}
		live := start("alex")
		waitSweep(t, start("ncf"))
		waitSweep(t, start("gpt2"))
		if st := live.Status(); st != StatusRunning {
			t.Fatalf("held sweep is %s, want running", st)
		}
		retained(t, get, map[string]bool{"s1": true, "s2": false, "s3": true})

		close(release)
		waitSweep(t, live)
		waitSweep(t, start("res"))
		retained(t, get, map[string]bool{"s1": false, "s3": true, "s4": true})
	})
}

// TestRejectedSubmitSpanNamesNoJob: a submission bounced by a full
// queue is never registered, so its cache_lookup span carries no job
// attribute and its would-be ID goes to the next admitted job; every
// job's ID then appears on exactly one cache_lookup span.
func TestRejectedSubmitSpanNamesNoJob(t *testing.T) {
	release := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return fakeResult(1), nil
	})
	ctx := dtrace.With(context.Background(), testRoot())
	submit := func(wl ...string) (*Job, error) {
		t.Helper()
		cfg, key, err := resolveSpec(JobSpec{Workloads: wl, Scale: "tiny", Sharing: "+dwt"})
		if err != nil {
			t.Fatal(err)
		}
		return s.submitPrepared(ctx, cfg, key, 0)
	}

	running, err := submit("ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	for running.Status() != StatusRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := submit("gpt2", "ncf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit("alex", "ncf"); err == nil {
		t.Fatal("third submit admitted past a full queue")
	}
	close(release)
	<-running.Done()
	<-queued.Done()
	next, err := submit("alex", "ncf")
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()

	spans, _ := s.spans.Get(testRoot().TraceID)
	var named []string
	unnamed := 0
	for _, sp := range spans {
		if sp.Name != "cache_lookup" {
			continue
		}
		if id, ok := sp.Attrs["job"]; ok {
			named = append(named, id)
		} else {
			unnamed++
		}
	}
	sort.Strings(named)
	if unnamed != 1 || strings.Join(named, ",") != "j1,j2,j3" || next.ID != "j3" {
		t.Errorf("cache_lookup spans name jobs %v with %d unnamed, next job %s; want j1,j2,j3 with 1 unnamed, next job j3",
			named, unnamed, next.ID)
	}
}
