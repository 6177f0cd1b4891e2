package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mnpusim/internal/config"
	"mnpusim/internal/experiments"
	"mnpusim/internal/metrics"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// SweepSpec is the POST /v1/sweeps request body.
type SweepSpec = api.SweepSpec

// sweepUnit is one expanded job of a sweep: a (mix, level) cell of the
// grid, or one workload's Ideal baseline. The unit list is the sweep's
// unit of accounting — each unit resolves to exactly one terminal
// status, locally or on a peer.
type sweepUnit struct {
	spec      JobSpec
	cfg       sim.Config
	key       string
	workloads []string
	sharing   string // empty for Ideal baselines
	ideal     bool

	// Written under the owning sweep's mu.
	status Status
	jobID  string
	peer   string
	cached bool
	errMsg string
	result []byte
}

// Sweep is one experiment-grid resource: a sampled mix population
// crossed with sharing levels plus the Ideal baselines, fanned out
// over the fleet and aggregated into an experiments.SharingResult.
type Sweep struct {
	ID string

	spec   SweepSpec
	cores  int
	levels []sim.Sharing
	mixes  [][]string
	// units lists the grid cells first — unit i is (mixes[i/nl],
	// levels[i%nl]), mirroring the experiments enumeration — then one
	// Ideal baseline per distinct workload.
	units []*sweepUnit

	ctx    context.Context
	cancel context.CancelFunc

	// span is the sweep-coordination span (nil when the submission was
	// untraced); traceSC is its context, the parent of every per-unit
	// span. Both are set before the coordinator goroutine starts and
	// never written again.
	span    *dtrace.Active
	traceSC dtrace.SpanContext

	eventSeq atomic.Int64

	mu       sync.Mutex
	status   Status
	errMsg   string
	result   []byte
	done     chan struct{}
	doneOnce sync.Once
}

// Done returns a channel closed when the sweep reaches a terminal
// state.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Status returns the sweep's current lifecycle state.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.status
}

// counts tallies the per-status rollup. Caller holds sw.mu.
func (sw *Sweep) countsLocked() (p api.SweepProgress) {
	p.Status = sw.status
	p.Total = len(sw.units)
	for _, u := range sw.units {
		switch u.status {
		case StatusQueued:
			p.Queued++
		case StatusRunning:
			p.Running++
		case StatusDone:
			p.Done++
		case StatusFailed:
			p.Failed++
		case StatusCancelled:
			p.Cancelled++
		}
		if u.cached {
			p.CacheHits++
		}
		if u.peer != "" {
			p.Forwarded++
		}
	}
	return p
}

// Progress snapshots the rollup for the SSE stream.
func (sw *Sweep) Progress() api.SweepProgress {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.countsLocked()
}

// View snapshots the sweep for JSON encoding; withJobs includes the
// per-unit detail (a full octa sweep has thousands of units).
func (sw *Sweep) View(withJobs bool) api.SweepView {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	p := sw.countsLocked()
	v := api.SweepView{
		ID: sw.ID, Status: sw.status, Error: sw.errMsg, Spec: sw.spec,
		Mixes: len(sw.mixes), Total: p.Total,
		Queued: p.Queued, Running: p.Running, Done: p.Done,
		Failed: p.Failed, Cancelled: p.Cancelled,
		CacheHits: p.CacheHits, Forwarded: p.Forwarded,
	}
	if sw.status == StatusDone {
		v.Result = json.RawMessage(sw.result)
	}
	if withJobs {
		v.Jobs = make([]api.SweepJobView, len(sw.units))
		for i, u := range sw.units {
			v.Jobs[i] = api.SweepJobView{
				Workloads: u.workloads, Sharing: u.sharing, Ideal: u.ideal,
				Key: u.key, JobID: u.jobID, Peer: u.peer,
				Status: u.status, Cached: u.cached, Error: u.errMsg,
			}
		}
	}
	return v
}

// finish moves the sweep to a terminal state exactly once.
func (sw *Sweep) finish(st Status, result []byte, errMsg string) {
	sw.mu.Lock()
	if !sw.status.Terminal() {
		sw.status, sw.result, sw.errMsg = st, result, errMsg
	}
	sw.mu.Unlock()
	sw.doneOnce.Do(func() { close(sw.done) })
	sw.cancel()
}

// expandSweep validates a spec and expands it into fingerprinted
// units: the mix x level grid in the exact enumeration order of the
// experiments package (unit i = mixes[i/len(levels)], levels[i%...]),
// followed by one Ideal baseline per distinct workload in
// first-appearance order.
func expandSweep(spec SweepSpec) (*Sweep, error) {
	cores := spec.Cores
	if cores == 0 {
		cores = 2
	}
	if cores < 2 || cores > 8 {
		return nil, errf(http.StatusBadRequest, "sweep cores must be 2..8, got %d", cores)
	}
	names := spec.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	var levels []sim.Sharing
	if len(spec.Sharing) == 0 {
		levels = sim.Levels()
	} else {
		for _, name := range spec.Sharing {
			lv, err := config.ParseSharing(name)
			if err != nil {
				return nil, errf(http.StatusBadRequest, "%v", err)
			}
			levels = append(levels, lv)
		}
	}
	if spec.Sample < 0 {
		return nil, errf(http.StatusBadRequest, "sweep sample must be >= 0, got %d", spec.Sample)
	}
	mixes := experiments.Mixes(names, cores, spec.Sample, spec.Seed)

	sw := &Sweep{
		spec:   spec,
		cores:  cores,
		levels: levels,
		mixes:  mixes,
		status: StatusQueued,
		done:   make(chan struct{}),
	}
	nl := len(levels)
	addUnit := func(js JobSpec, wl []string, sharing string, ideal bool) error {
		cfg, key, err := resolveSpec(js)
		if err != nil {
			return err
		}
		sw.units = append(sw.units, &sweepUnit{
			spec: js, cfg: cfg, key: key,
			workloads: wl, sharing: sharing, ideal: ideal,
			status: StatusQueued,
		})
		return nil
	}
	for i := 0; i < len(mixes)*nl; i++ {
		mix, lv := mixes[i/nl], levels[i%nl]
		js := JobSpec{
			Workloads: mix, Scale: spec.Scale, Sharing: lv.String(),
			TimeoutMS: spec.TimeoutMS,
		}
		if err := addUnit(js, mix, lv.String(), false); err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool)
	for _, mix := range mixes {
		for _, w := range mix {
			if seen[w] {
				continue
			}
			seen[w] = true
			js := JobSpec{
				Workloads: []string{w}, Scale: spec.Scale, Ideal: true,
				TimeoutMS: spec.TimeoutMS,
			}
			if err := addUnit(js, []string{w}, "", true); err != nil {
				return nil, err
			}
		}
	}
	return sw, nil
}

// StartSweep expands and launches a sweep. A trace context carried in
// ctx (dtrace.With) parents the sweep-coordination span and, through
// it, every per-unit and job span the fan-out produces.
func (s *Server) StartSweep(ctx context.Context, spec SweepSpec) (*Sweep, error) {
	sw, err := expandSweep(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errf(http.StatusServiceUnavailable, "serve: draining, not accepting sweeps")
	}
	s.nextSweepID++
	sw.ID = fmt.Sprintf("s%d", s.nextSweepID)
	sw.ctx, sw.cancel = context.WithCancel(s.baseCtx)
	sw.status = StatusRunning
	s.registerSweep(sw)
	s.mu.Unlock()

	parent, _ := dtrace.From(ctx)
	if a := s.tracer.StartChild(parent, "sweep coordinate"); a != nil {
		a.SetAttr("sweep", sw.ID)
		a.SetAttr("cores", strconv.Itoa(sw.cores))
		a.SetAttr("units", strconv.Itoa(len(sw.units)))
		sw.span, sw.traceSC = a, a.Context()
	}

	s.sweepsSubmitted.Inc()
	s.log.Info("sweep started", "sweep", sw.ID, "cores", sw.cores,
		"mixes", len(sw.mixes), "levels", len(sw.levels), "units", len(sw.units))
	s.sweepWG.Add(1)
	go s.runSweep(sw)
	return sw, nil
}

// registerSweep records the sweep, evicting the oldest terminal sweeps
// beyond the retention bound. Caller holds s.mu.
func (s *Server) registerSweep(sw *Sweep) {
	s.sweeps[sw.ID] = sw
	s.sweepOrder = append(s.sweepOrder, sw.ID)
	for len(s.sweeps) > s.cfg.MaxSweeps {
		evicted := false
		for i, id := range s.sweepOrder {
			if old, ok := s.sweeps[id]; ok && old.Status().Terminal() {
				delete(s.sweeps, id)
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// Sweep looks up a sweep by ID.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// CancelSweep cancels a sweep: outstanding units resolve as cancelled,
// in-flight local jobs are cancelled, remote ones best-effort.
func (s *Server) CancelSweep(id string) (*Sweep, bool) {
	sw, ok := s.Sweep(id)
	if !ok {
		return nil, false
	}
	sw.cancel()
	s.log.Info("sweep cancel requested", "sweep", sw.ID)
	return sw, true
}

// runSweep is the coordinator goroutine: it fans the units out with
// bounded parallelism, waits for every unit to resolve, and
// aggregates.
func (s *Server) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	sem := make(chan struct{}, s.cfg.SweepParallel)
	var wg sync.WaitGroup
	for _, u := range sw.units {
		wg.Add(1)
		go func(u *sweepUnit) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-sw.ctx.Done():
				sw.setUnit(u, StatusCancelled, "sweep cancelled")
				return
			}
			s.runSweepUnit(sw, u)
		}(u)
	}
	wg.Wait()
	s.finishSweep(sw)
}

// setUnit moves a unit to a status under the sweep lock.
func (sw *Sweep) setUnit(u *sweepUnit, st Status, errMsg string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if u.status.Terminal() {
		return
	}
	u.status, u.errMsg = st, errMsg
}

// runSweepUnit resolves one unit: on its consistent-hash owner when a
// fleet is configured (falling back to local execution if the owner is
// unreachable — this is what lets a sweep survive a member dying
// mid-run), locally otherwise.
func (s *Server) runSweepUnit(sw *Sweep, u *sweepUnit) {
	if sw.ctx.Err() != nil {
		sw.setUnit(u, StatusCancelled, "sweep cancelled")
		return
	}
	// The per-unit dispatch span parents the unit's job spans: locally
	// through the context handed to submitPrepared, remotely through the
	// traceparent header the client injects on the forwarded submit.
	uctx := sw.ctx
	if ua := s.tracer.StartChild(sw.traceSC, "unit "+strings.Join(u.workloads, "+")); ua != nil {
		ua.SetAttr("sweep", sw.ID)
		ua.SetAttr("key", u.key)
		if u.ideal {
			ua.SetAttr("ideal", "true")
		} else {
			ua.SetAttr("sharing", u.sharing)
		}
		uctx = dtrace.With(sw.ctx, ua.Context())
		defer func() {
			sw.mu.Lock()
			st, peer := u.status, u.peer
			sw.mu.Unlock()
			ua.SetAttr("status", string(st))
			if peer != "" {
				ua.SetAttr("peer", peer)
			}
			ua.End()
		}()
	}
	if owner := s.owner(u.key); owner != "" {
		if s.runUnitRemote(uctx, sw, u, owner) {
			return
		}
		s.log.Warn("sweep unit falling back to local run", "sweep", sw.ID, "key", u.key, "owner", owner)
	}
	s.runUnitLocal(uctx, sw, u)
}

// runUnitRemote executes a unit on its owning peer. It reports whether
// the unit was fully resolved there; false means the caller should run
// it locally (owner unreachable, rejecting, or drained mid-run). ctx
// is the unit's trace-carrying context (same cancellation as sw.ctx).
func (s *Server) runUnitRemote(ctx context.Context, sw *Sweep, u *sweepUnit, owner string) bool {
	c := s.fleetClient(owner)
	var view JobView
	for attempt := 0; ; attempt++ {
		v, err := c.SubmitJob(ctx, u.spec)
		if err == nil {
			view = v
			break
		}
		if sw.ctx.Err() != nil {
			sw.setUnit(u, StatusCancelled, "sweep cancelled")
			return true
		}
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusBadRequest {
			sw.setUnit(u, StatusFailed, ae.Message)
			return true
		}
		// The owner's queue is full: give it a bounded chance to drain
		// before claiming the unit locally.
		if client.IsRetryable(err) && attempt < 20 {
			select {
			case <-time.After(50 * time.Millisecond):
				continue
			case <-sw.ctx.Done():
				sw.setUnit(u, StatusCancelled, "sweep cancelled")
				return true
			}
		}
		return false
	}

	sw.mu.Lock()
	if !u.status.Terminal() {
		u.status, u.jobID, u.peer = StatusRunning, view.ID, owner
	}
	sw.mu.Unlock()

	final, err := c.ForJob(view).WaitJob(ctx, view.ID, 0)
	if err != nil {
		if sw.ctx.Err() != nil {
			// Our cancellation, not the peer's failure: release the remote
			// job so the peer's worker stops burning on it.
			cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = c.CancelJob(cctx, view.ID)
			ccancel()
			sw.setUnit(u, StatusCancelled, "sweep cancelled")
			return true
		}
		return false // peer died mid-run
	}
	switch final.Status {
	case StatusDone:
		sw.mu.Lock()
		if !u.status.Terminal() {
			u.status, u.cached, u.result = StatusDone, final.Cached, []byte(final.Result)
		}
		sw.mu.Unlock()
		s.forwarded.Inc()
		return true
	case StatusFailed:
		sw.setUnit(u, StatusFailed, final.Error)
		return true
	default:
		// The peer cancelled it (draining); reclaim the unit locally.
		return false
	}
}

// runUnitLocal executes a unit on this daemon's own worker pool,
// retrying queue-full rejections. ctx carries the unit's trace context
// into the job's spans.
func (s *Server) runUnitLocal(ctx context.Context, sw *Sweep, u *sweepUnit) {
	var job *Job
	for {
		j, err := s.submitPrepared(ctx, u.cfg, u.key, sw.spec.TimeoutMS)
		if err == nil {
			job = j
			break
		}
		var ae *apiError
		if !errors.As(err, &ae) || ae.code != http.StatusServiceUnavailable || s.Draining() {
			sw.setUnit(u, statusForSubmitErr(ae, s.Draining()), err.Error())
			return
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-sw.ctx.Done():
			sw.setUnit(u, StatusCancelled, "sweep cancelled")
			return
		}
	}

	sw.mu.Lock()
	if !u.status.Terminal() {
		u.status, u.jobID = StatusRunning, job.ID
	}
	sw.mu.Unlock()

	select {
	case <-job.Done():
	case <-sw.ctx.Done():
		s.Cancel(job.ID)
		<-job.Done()
	}
	v := job.View(true)
	switch v.Status {
	case StatusDone:
		sw.mu.Lock()
		if !u.status.Terminal() {
			u.status, u.cached, u.result = StatusDone, v.Cached, []byte(v.Result)
		}
		sw.mu.Unlock()
	case StatusFailed:
		sw.setUnit(u, StatusFailed, v.Error)
	default:
		sw.setUnit(u, StatusCancelled, v.Error)
	}
}

// statusForSubmitErr classifies a terminal submit rejection: draining
// resolves the unit as cancelled (the daemon is going away), anything
// else as failed.
func statusForSubmitErr(ae *apiError, draining bool) Status {
	if ae != nil && ae.code == http.StatusServiceUnavailable && draining {
		return StatusCancelled
	}
	return StatusFailed
}

// finishSweep classifies the finished unit set and aggregates the
// all-done case into the experiments.SharingResult.
func (s *Server) finishSweep(sw *Sweep) {
	p := sw.Progress()
	var (
		st     Status
		result []byte
		msg    string
	)
	switch {
	case p.Failed > 0:
		st = StatusFailed
		sw.mu.Lock()
		for _, u := range sw.units {
			if u.status == StatusFailed {
				msg = fmt.Sprintf("unit %v %s: %s", u.workloads, u.sharing, u.errMsg)
				break
			}
		}
		sw.mu.Unlock()
	case p.Cancelled > 0:
		st, msg = StatusCancelled, "sweep cancelled"
	default:
		b, err := sw.aggregate()
		if err != nil {
			st, msg = StatusFailed, fmt.Sprintf("aggregating: %v", err)
		} else {
			st, result = StatusDone, b
		}
	}
	// End the coordination span before the done channel closes, so a
	// trace fetched the instant the sweep resolves already contains it.
	if sw.span != nil {
		sw.span.SetAttr("status", string(st))
		sw.span.SetAttr("cache_hits", strconv.Itoa(p.CacheHits))
		sw.span.SetAttr("forwarded", strconv.Itoa(p.Forwarded))
		sw.span.End()
	}
	sw.finish(st, result, msg)
	s.log.Info("sweep finished", "sweep", sw.ID, "status", sw.Status(),
		"done", p.Done, "failed", p.Failed, "cancelled", p.Cancelled,
		"cache_hits", p.CacheHits, "forwarded", p.Forwarded)
}

// aggregate assembles the units into an experiments.SharingResult with
// the exact enumeration and arithmetic of the single-process
// experiments run, so the bytes match a local run of the same grid.
func (sw *Sweep) aggregate() ([]byte, error) {
	ideal := make(map[string]int64)
	for _, u := range sw.units {
		if !u.ideal {
			continue
		}
		var res sim.Result
		if err := json.Unmarshal(u.result, &res); err != nil {
			return nil, fmt.Errorf("ideal %s: %w", u.workloads[0], err)
		}
		ideal[u.workloads[0]] = res.Cores[0].Cycles
	}
	nl := len(sw.levels)
	out := experiments.SharingResult{
		Cores:  sw.cores,
		Levels: sw.levels,
		Mixes:  make(map[sim.Sharing][]experiments.MixScore),
	}
	for i := 0; i < len(sw.mixes)*nl; i++ {
		u := sw.units[i]
		var res sim.Result
		if err := json.Unmarshal(u.result, &res); err != nil {
			return nil, fmt.Errorf("unit %v %s: %w", u.workloads, u.sharing, err)
		}
		if len(res.Cores) < len(u.workloads) {
			return nil, fmt.Errorf("unit %v %s: %d core results for %d workloads",
				u.workloads, u.sharing, len(res.Cores), len(u.workloads))
		}
		sp := make([]float64, len(u.workloads))
		for k, w := range u.workloads {
			ib, ok := ideal[w]
			if !ok {
				return nil, fmt.Errorf("no ideal baseline for %s", w)
			}
			sp[k] = metrics.Speedup(ib, res.Cores[k].Cycles)
		}
		out.Mixes[sw.levels[i%nl]] = append(out.Mixes[sw.levels[i%nl]], experiments.MixScore{
			Workloads: append([]string(nil), u.workloads...),
			Speedups:  sp,
			Geomean:   metrics.MustGeomean(sp),
			Fairness:  metrics.FairnessFromSpeedups(sp),
		})
	}
	return json.Marshal(out)
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, errf(http.StatusBadRequest, "decoding sweep spec: %v", err))
		return
	}
	sw, err := s.StartSweep(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sw.View(false))
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no such sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sw.View(r.URL.Query().Get("jobs") == "true"))
}

// handleSweepList is GET /v1/sweeps: sweeps in submission order, paged
// by listPage exactly like GET /v1/jobs.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	order, sweeps := slices.Clone(s.sweepOrder), maps.Clone(s.sweeps)
	s.mu.Unlock()
	page, next, err := listPage(r.URL.Query(), order, sweeps)
	if err != nil {
		writeError(w, err)
		return
	}
	list := api.SweepList{Sweeps: make([]api.SweepView, 0, len(page)), NextCursor: next}
	for _, sw := range page {
		list.Sweeps = append(list.Sweeps, sw.View(false))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.CancelSweep(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no such sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sw.View(false))
}

// handleSweepEvents is GET /v1/sweeps/{id}/events: an SSE stream of
// rollup "progress" events while the sweep runs, then exactly one
// terminal event — "result" (the aggregated SharingResult bytes),
// "failed", or "cancelled" — and closes.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no such sweep %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusInternalServerError, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if _, err := fmt.Fprintf(w, "retry: %d\n\n", sseRetryMS); err != nil {
		return
	}
	fl.Flush()

	send := func(name string, payload []byte) bool {
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
			sw.eventSeq.Add(1), name, payload); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	sendJSON := func(name string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		return send(name, b)
	}

	if !sendJSON("progress", sw.Progress()) {
		return
	}
	ticker := time.NewTicker(s.cfg.EventInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sw.Done():
			if !sendJSON("progress", sw.Progress()) {
				return
			}
			sw.mu.Lock()
			st, result, errMsg := sw.status, sw.result, sw.errMsg
			sw.mu.Unlock()
			switch st {
			case StatusDone:
				send("result", result)
			case StatusFailed:
				sendJSON("failed", map[string]string{"error": errMsg})
			case StatusCancelled:
				sendJSON("cancelled", map[string]string{"error": errMsg})
			}
			return
		case <-ticker.C:
			if !sendJSON("progress", sw.Progress()) {
				return
			}
		}
	}
}
