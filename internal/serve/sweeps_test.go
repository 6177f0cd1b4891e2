package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnpusim/internal/experiments"
	"mnpusim/internal/metrics"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
)

// dualResult builds a two-core stub result with distinct cycle counts.
func dualResult(a, b int64) sim.Result {
	return sim.Result{GlobalCycles: max(a, b), Cores: []sim.CoreResult{
		{Net: "a", Cycles: a}, {Net: "b", Cycles: b},
	}}
}

// waitSweep blocks until the sweep terminates.
func waitSweep(t *testing.T, sw *Sweep) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(3 * time.Minute): // real-sim sweeps run ~10x slower under -race
		t.Fatalf("sweep %s did not finish; rollup %+v", sw.ID, sw.Progress())
	}
}

// TestSweepExpansionCounts verifies the grid expands to the documented
// unit counts: mixes x levels cells plus one Ideal per distinct
// workload, with the full quad population at M(8,4) = 330.
func TestSweepExpansionCounts(t *testing.T) {
	cases := []struct {
		name        string
		spec        SweepSpec
		mixes, jobs int
	}{
		{"dual full", SweepSpec{Cores: 2}, 36, 36*4 + 8},
		{"quad full", SweepSpec{Cores: 4}, 330, 330*4 + 8},
		{"quad sampled", SweepSpec{Cores: 4, Sample: 30}, 30, 30*4 + 8},
		{"quad seeded sample", SweepSpec{Cores: 4, Sample: 25, Seed: 7}, 25, 25*4 + 8},
		{"two workloads one level", SweepSpec{Cores: 2, Workloads: []string{"ncf", "gpt2"}, Sharing: []string{"+dwt"}}, 3, 3 + 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := expandSweep(tc.spec)
			if err != nil {
				t.Fatalf("expandSweep: %v", err)
			}
			if len(sw.grid.Mixes) != tc.mixes {
				t.Errorf("mixes = %d, want %d", len(sw.grid.Mixes), tc.mixes)
			}
			if len(sw.units) != tc.jobs {
				t.Errorf("units = %d, want %d", len(sw.units), tc.jobs)
			}
			seen := map[string]bool{}
			for i, u := range sw.units {
				if seen[u.key] {
					mix, sharing := sw.unitName(i)
					t.Fatalf("duplicate unit key %s (%v %q)", u.key, mix, sharing)
				}
				seen[u.key] = true
			}
		})
	}
}

// TestSweepExpansionRetainsLittleHeap expands the full quad grid (1328
// units) and checks the units hold little memory once expanded: each
// keeps its key, and its sim.Config is built again only when the unit
// runs. It must not run in parallel with other tests, which would
// allocate between the two heap readings.
func TestSweepExpansionRetainsLittleHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sw, err := expandSweep(SweepSpec{Cores: 4})
	if err != nil {
		t.Fatalf("expandSweep: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(sw.units) != 330*4+8 {
		t.Fatalf("units = %d, want %d", len(sw.units), 330*4+8)
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 4<<20 {
		t.Errorf("expanded quad sweep retains %.1f MB of heap, want under 4 MB", float64(retained)/(1<<20))
	}
	runtime.KeepAlive(sw)
}

// TestSweepStrideSamplingMatchesQuadMixes pins the seed-0 sampling to
// the stride the quad experiments have always used.
func TestSweepStrideSamplingMatchesQuadMixes(t *testing.T) {
	names := []string{"ncf", "gpt2", "bert", "resnet", "vgg", "dlrm", "ssd", "unet"}
	got := experiments.Mixes(names, 4, 100, 0)
	want := experiments.QuadMixes(names, 100)
	if len(got) != len(want) {
		t.Fatalf("Mixes = %d mixes, QuadMixes = %d", len(got), len(want))
	}
	for i := range got {
		if strings.Join(got[i], "+") != strings.Join(want[i], "+") {
			t.Fatalf("mix %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestSweepLifecycleStubbed runs a small sweep on a stubbed simulator
// and checks the rollup, the per-unit views, that a served Ideal job
// and the sweep's baseline unit for the same workload share one key
// and one cache entry, and that resubmitting the same sweep is answered
// entirely from the result cache.
func TestSweepLifecycleStubbed(t *testing.T) {
	s := newStubServer(t, Config{Workers: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return dualResult(100, 200), nil
	})
	spec := SweepSpec{Cores: 2, Workloads: []string{"ncf", "gpt2"}}
	sw, err := s.StartSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	waitSweep(t, sw)

	v := sw.View(true)
	if v.Status != StatusDone {
		t.Fatalf("sweep %s: %s (%s)", v.ID, v.Status, v.Error)
	}
	wantUnits := 3*4 + 2
	if v.Total != wantUnits || v.Done != wantUnits || len(v.Jobs) != wantUnits {
		t.Fatalf("rollup total=%d done=%d jobs=%d, want all %d", v.Total, v.Done, len(v.Jobs), wantUnits)
	}
	if v.Mixes != 3 {
		t.Errorf("mixes = %d, want 3", v.Mixes)
	}
	if len(v.Result) == 0 {
		t.Fatal("done sweep has no aggregated result")
	}
	var res experiments.SharingResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("decoding aggregate: %v", err)
	}
	if res.Cores != 2 || len(res.Levels) != 4 || len(res.Mixes[sim.Static]) != 3 {
		t.Errorf("aggregate shape: cores=%d levels=%d static mixes=%d",
			res.Cores, len(res.Levels), len(res.Mixes[sim.Static]))
	}

	// Unit 12 is the first baseline: ncf's Ideal, after the 3x4 cells.
	if u := v.Jobs[12]; !u.Ideal || strings.Join(u.Workloads, "+") != "ncf" || u.Sharing != "" {
		t.Fatalf("unit 12 = %+v, want ncf's Ideal baseline", u)
	}
	cached := s.cache.len()
	job, err := s.submit(JobSpec{Workloads: []string{"ncf"}, Ideal: true})
	if err != nil {
		t.Fatalf("submit ncf Ideal: %v", err)
	}
	<-job.Done()
	if jv := job.View(false); jv.Key != v.Jobs[12].Key || !jv.Cached || s.cache.len() != cached {
		t.Errorf("served ncf Ideal: key %s cached=%v, cache %d -> %d entries; want the baseline unit's key %s, a hit, and no new entry",
			jv.Key, jv.Cached, cached, s.cache.len(), v.Jobs[12].Key)
	}

	// Same grid again: every unit's config is already cached.
	sw2, err := s.StartSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("StartSweep (repeat): %v", err)
	}
	waitSweep(t, sw2)
	v2 := sw2.View(false)
	if v2.Status != StatusDone || v2.CacheHits != wantUnits {
		t.Fatalf("repeat sweep: status=%s cache_hits=%d, want done with %d hits", v2.Status, v2.CacheHits, wantUnits)
	}
	if !bytes.Equal(v2.Result, v.Result) {
		t.Error("cached sweep aggregate differs from original")
	}
}

// TestSweepCancellation verifies DELETE /v1/sweeps/{id} resolves
// outstanding units and terminates the sweep as cancelled.
func TestSweepCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		select {
		case <-release:
			return dualResult(1, 1), nil
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	v, err := cl.SubmitSweep(ctx, api.SweepSpec{Cores: 2, Workloads: []string{"ncf", "gpt2"}})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if _, err := cl.CancelSweep(ctx, v.ID); err != nil {
		t.Fatalf("CancelSweep: %v", err)
	}
	final, err := cl.WaitSweep(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if final.Queued != 0 || final.Running != 0 || final.Cancelled+final.Done != final.Total {
		t.Errorf("ended sweep rollup queued=%d running=%d cancelled=%d done=%d total=%d; want every unit done or cancelled",
			final.Queued, final.Running, final.Cancelled, final.Done, final.Total)
	}
}

// TestSweepUnitsRunTheirKeys runs a small-scale sweep on a stubbed
// simulator that fingerprints every config it receives: the sweep must
// simulate exactly its units' keys. A run-time config built at another
// scale than the keys would cache its result under a key it does not
// name.
func TestSweepUnitsRunTheirKeys(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]bool{}
	s := newStubServer(t, Config{Workers: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		key, err := c.Fingerprint()
		if err != nil {
			return sim.Result{}, err
		}
		mu.Lock()
		ran[key] = true
		mu.Unlock()
		return dualResult(100, 200), nil
	})
	sw, err := s.StartSweep(context.Background(), SweepSpec{
		Cores: 2, Workloads: []string{"ncf", "gpt2"}, Scale: "small", Sharing: []string{"+dwt"},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	waitSweep(t, sw)
	if st := sw.Status(); st != StatusDone {
		t.Fatalf("sweep %s", st)
	}
	want := map[string]bool{}
	for _, u := range sw.units {
		want[u.key] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != len(want) {
		t.Errorf("simulated %d distinct configs for %d unit keys", len(ran), len(want))
	}
	for key := range ran {
		if !want[key] {
			t.Errorf("simulated config %.12s is no unit's key", key)
		}
	}
}

// TestSweepEventsStream verifies the sweep SSE surface through the
// typed client: progress events then one terminal "result" event whose
// bytes match the sweep view's aggregate.
func TestSweepEventsStream(t *testing.T) {
	s := newStubServer(t, Config{Workers: 2, EventInterval: 10 * time.Millisecond}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return dualResult(10, 20), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	v, err := cl.SubmitSweep(ctx, api.SweepSpec{Cores: 2, Workloads: []string{"ncf"}})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	var progress int
	var result []byte
	var lastID int64
	err = cl.SweepEvents(ctx, v.ID, func(e client.Event) error {
		if e.ID <= lastID {
			t.Errorf("event id %d not monotonic after %d", e.ID, lastID)
		}
		lastID = e.ID
		switch e.Name {
		case "progress":
			progress++
			var p api.SweepProgress
			if err := json.Unmarshal(e.Data, &p); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
		case "result":
			result = e.Data
		}
		return nil
	})
	if err != nil {
		t.Fatalf("SweepEvents: %v", err)
	}
	if progress == 0 {
		t.Error("no progress events")
	}
	final, err := cl.Sweep(ctx, v.ID, false)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if !bytes.Equal(result, final.Result) {
		t.Errorf("terminal event bytes differ from sweep view result")
	}
}

// TestSweepMatchesExperiments runs real (tiny-scale) grids through the
// sweep machinery and checks two byte identities against a
// hand-written oracle that scores the sweep's own unit results: the
// sweep's aggregate, and experiments.SharingGrid.Run simulating the
// same grid independently in-process — the contract that makes served
// sweeps interchangeable with single-process experiment runs. The quad
// case (5 mixes at one level, 7 simulations) covers the n-core path.
func TestSweepMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	cases := []struct {
		name   string
		cores  int
		levels []sim.Sharing
	}{
		{"dual", 2, sim.Levels()},
		{"quad", 4, []sim.Sharing{sim.ShareDWT}},
	}
	names := []string{"ncf", "gpt2"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, Config{Workers: 4})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			})
			spec := SweepSpec{Cores: tc.cores, Workloads: names}
			for _, lv := range tc.levels {
				spec.Sharing = append(spec.Sharing, lv.String())
			}
			sw, err := s.StartSweep(context.Background(), spec)
			if err != nil {
				t.Fatalf("StartSweep: %v", err)
			}
			waitSweep(t, sw)
			v := sw.View(false)
			if v.Status != StatusDone {
				t.Fatalf("sweep: %s (%s)", v.Status, v.Error)
			}

			// The oracle: every mix at every level, in enumeration order,
			// each core's cycles over its workload's Ideal cycles, read
			// from each unit's result bytes in the cache.
			cores := func(i int) []sim.CoreResult {
				cached, ok := s.cache.get(sw.units[i].key)
				if !ok {
					t.Fatalf("unit %d: no cached result", i)
				}
				var res sim.Result
				if err := json.Unmarshal(cached.result, &res); err != nil {
					t.Fatalf("unit %d: %v", i, err)
				}
				return res.Cores
			}
			ideal := map[string]int64{}
			for i := range sw.units {
				if mix, sharing := sw.unitName(i); sharing == "" {
					ideal[mix[0]] = cores(i)[0].Cycles
				}
			}
			want := experiments.SharingResult{
				Cores:  tc.cores,
				Levels: tc.levels,
				Mixes:  map[sim.Sharing][]experiments.MixScore{},
			}
			mixes := experiments.Mixes(names, tc.cores, 0, 0)
			for i := 0; i < len(mixes)*len(tc.levels); i++ {
				mix, lv := mixes[i/len(tc.levels)], tc.levels[i%len(tc.levels)]
				if got, sharing := sw.unitName(i); strings.Join(got, "+") != strings.Join(mix, "+") || sharing != lv.String() {
					t.Fatalf("unit %d is %v %s, want %v %s", i, got, sharing, mix, lv)
				}
				sp := make([]float64, len(mix))
				for k, c := range cores(i)[:len(mix)] {
					sp[k] = metrics.Speedup(ideal[mix[k]], c.Cycles)
				}
				want.Mixes[lv] = append(want.Mixes[lv], experiments.MixScore{
					Workloads: append([]string(nil), mix...),
					Speedups:  sp,
					Geomean:   metrics.MustGeomean(sp),
					Fairness:  metrics.FairnessFromSpeedups(sp),
				})
			}
			wantBytes, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v.Result, wantBytes) {
				t.Errorf("sweep aggregate differs from the oracle:\n sweep: %s\noracle: %s", v.Result, wantBytes)
			}

			grid := experiments.SharingGrid{Cores: tc.cores, Levels: tc.levels, Mixes: mixes}
			got, err := grid.Run(experiments.NewRunner(experiments.WithWorkers(4)))
			if err != nil {
				t.Fatalf("SharingGrid.Run: %v", err)
			}
			gotBytes, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("SharingGrid.Run differs from the oracle:\n  grid: %s\noracle: %s", gotBytes, wantBytes)
			}
		})
	}
}

// TestJobsListPagination exercises GET /v1/jobs filters and cursors
// through the typed client.
func TestJobsListPagination(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(1), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	pairs := [][2]string{{"ncf", "gpt2"}, {"alex", "res"}, {"dlrm", "ds2"}, {"sfrnn", "yt"}, {"ncf", "alex"}}
	for _, p := range pairs {
		v, err := cl.SubmitJob(ctx, api.JobSpec{Workloads: []string{p[0], p[1]}})
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		if _, err := cl.WaitJob(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
	}

	var all []api.JobView
	cursor := ""
	pages := 0
	for {
		l, err := cl.ListJobs(ctx, "", cursor, 2)
		if err != nil {
			t.Fatalf("ListJobs: %v", err)
		}
		all = append(all, l.Jobs...)
		pages++
		if l.NextCursor == "" {
			break
		}
		cursor = l.NextCursor
	}
	if len(all) != len(pairs) || pages < 3 {
		t.Fatalf("paged %d jobs over %d pages, want %d over >=3", len(all), pages, len(pairs))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID && len(all[i-1].ID) >= len(all[i].ID) {
			t.Errorf("jobs out of submission order: %s before %s", all[i-1].ID, all[i].ID)
		}
	}

	done, err := cl.ListJobs(ctx, StatusDone, "", 0)
	if err != nil {
		t.Fatalf("ListJobs done: %v", err)
	}
	if len(done.Jobs) != len(pairs) {
		t.Errorf("done filter = %d jobs, want %d", len(done.Jobs), len(pairs))
	}
	failed, err := cl.ListJobs(ctx, StatusFailed, "", 0)
	if err != nil {
		t.Fatalf("ListJobs failed: %v", err)
	}
	if len(failed.Jobs) != 0 {
		t.Errorf("failed filter = %d jobs, want 0", len(failed.Jobs))
	}
}

// TestSweepsListPagination pages GET /v1/sweeps through the paginator
// it shares with GET /v1/jobs: cursors walk every sweep exactly once in
// submission order, the last page carries no cursor, and the status
// filter applies.
func TestSweepsListPagination(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return dualResult(100, 200), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	grids := [][]string{{"ncf", "gpt2"}, {"alex", "res"}, {"dlrm", "ds2"}, {"sfrnn", "yt"}, {"ncf", "alex"}}
	var ids []string
	for _, wl := range grids {
		v, err := cl.SubmitSweep(ctx, api.SweepSpec{Workloads: wl, Sharing: []string{"+dwt"}})
		if err != nil {
			t.Fatalf("SubmitSweep: %v", err)
		}
		if _, err := cl.WaitSweep(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("WaitSweep: %v", err)
		}
		ids = append(ids, v.ID)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		l, err := cl.ListSweeps(ctx, "", cursor, 2)
		if err != nil {
			t.Fatalf("ListSweeps: %v", err)
		}
		for _, v := range l.Sweeps {
			got = append(got, v.ID)
		}
		pages++
		if l.NextCursor == "" {
			break
		}
		cursor = l.NextCursor
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") || pages != 3 {
		t.Fatalf("paged %v over %d pages, want %v over 3", got, pages, ids)
	}

	done, err := cl.ListSweeps(ctx, StatusDone, "", 0)
	if err != nil {
		t.Fatalf("ListSweeps done: %v", err)
	}
	if len(done.Sweeps) != len(grids) {
		t.Errorf("done filter = %d sweeps, want %d", len(done.Sweeps), len(grids))
	}
	failed, err := cl.ListSweeps(ctx, StatusFailed, "", 0)
	if err != nil {
		t.Fatalf("ListSweeps failed: %v", err)
	}
	if len(failed.Sweeps) != 0 {
		t.Errorf("failed filter = %d sweeps, want 0", len(failed.Sweeps))
	}
}
