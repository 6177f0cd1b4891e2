package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mnpusim/internal/config"
	"mnpusim/internal/experiments"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// SweepSpec is the POST /v1/sweeps request body.
type SweepSpec = api.SweepSpec

// sweepUnit is one expanded job of a sweep: a (mix, level) cell of the
// grid, or one workload's Ideal baseline. The unit list is the sweep's
// unit of accounting — each unit resolves to exactly one terminal
// status. A unit keeps its spec and key, not the built sim.Config: the
// config is built again when the unit is submitted, so a sweep of
// thousands of units does not hold thousands of configs for its whole
// life. BuildConfig is deterministic, so key still names that config.
type sweepUnit struct {
	spec JobSpec
	key  string

	// Written under the owning sweep's mu.
	status Status
	jobID  string
	cached bool
	errMsg string
	result []byte
}

// Sweep is one experiment-grid resource: an experiments.SharingGrid
// expanded into jobs, run on the daemon's worker pool, and scored by
// the grid into its SharingResult.
type Sweep struct {
	lifecycle

	spec SweepSpec
	grid experiments.SharingGrid
	// units lists the grid's cells first — unit i is grid.Cell(i) —
	// then one Ideal baseline per workload, in grid.Ideals() order.
	units []*sweepUnit

	// span is the sweep-coordination span (nil when the submission was
	// untraced); traceSC is its context, the parent of every per-unit
	// span. Both are set before the coordinator goroutine starts and
	// never written again.
	span    *dtrace.Active
	traceSC dtrace.SpanContext
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
// per-unit detail (a full quad sweep has 1328 units).
func (sw *Sweep) View(withJobs bool) api.SweepView {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	p := sw.countsLocked()
	v := api.SweepView{
		ID: sw.ID, Status: sw.status, Error: sw.errMsg, Spec: sw.spec,
		Mixes: len(sw.grid.Mixes), Total: p.Total,
		Queued: p.Queued, Running: p.Running, Done: p.Done,
		Failed: p.Failed, Cancelled: p.Cancelled,
		CacheHits: p.CacheHits,
	}
	if sw.status == StatusDone {
		v.Result = json.RawMessage(sw.result)
	}
	if withJobs {
		v.Jobs = make([]api.SweepJobView, len(sw.units))
		for i, u := range sw.units {
			v.Jobs[i] = api.SweepJobView{
				Workloads: u.spec.Workloads, Sharing: u.spec.Sharing, Ideal: u.spec.Ideal,
				Key: u.key, JobID: u.jobID,
				Status: u.status, Cached: u.cached, Error: u.errMsg,
			}
		}
	}
	return v
}

// expandSweep validates a spec and expands its SharingGrid into
// fingerprinted units: the cells in the grid's enumeration order, then
// the grid's Ideal baselines.
func expandSweep(spec SweepSpec) (*Sweep, error) {
	cores := spec.Cores
	if cores == 0 {
		cores = 2
	}
	// The paper evaluates dual- and quad-core NPUs. Wider grids are
	// not served: an octa grid alone expands to 25,748 units inside
	// the POST handler.
	if cores != 2 && cores != 4 {
		return nil, errf(http.StatusBadRequest, "sweep cores must be 2 or 4, got %d", cores)
	}
	names := spec.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	// Known, distinct names cap the population at M(8,4) = 330 mixes;
	// a repeated name would inflate it before any unit is resolved.
	for i, w := range names {
		if !slices.Contains(workloads.Names(), w) {
			return nil, errf(http.StatusBadRequest, "sweep workload %q unknown (have %v)", w, workloads.Names())
		}
		if slices.Contains(names[:i], w) {
			return nil, errf(http.StatusBadRequest, "sweep workload %q repeated", w)
		}
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

	sw := &Sweep{spec: spec, grid: experiments.SharingGrid{
		Cores: cores, Levels: levels,
		Mixes: experiments.Mixes(names, cores, spec.Sample, spec.Seed),
	}}
	addUnit := func(js JobSpec) error {
		_, key, err := resolveSpec(js)
		if err != nil {
			return err
		}
		sw.units = append(sw.units, &sweepUnit{spec: js, key: key, status: StatusQueued})
		return nil
	}
	for i := range sw.grid.Len() {
		mix, lv := sw.grid.Cell(i)
		js := JobSpec{Workloads: mix, Scale: spec.Scale, Sharing: lv.String(), TimeoutMS: spec.TimeoutMS}
		if err := addUnit(js); err != nil {
			return nil, err
		}
	}
	for _, w := range sw.grid.Ideals() {
		js := JobSpec{Workloads: []string{w}, Scale: spec.Scale, Ideal: true, TimeoutMS: spec.TimeoutMS}
		if err := addUnit(js); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// StartSweep expands and launches a sweep. A trace context carried in
// ctx (dtrace.With) parents the sweep-coordination span and, through
// it, every per-unit and job span the sweep produces.
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
	sw.start(s.baseCtx, StatusRunning)
	s.sweeps.add(sw)
	s.mu.Unlock()

	parent, _ := dtrace.From(ctx)
	if a := s.tracer.StartChild(parent, "sweep coordinate"); a != nil {
		a.SetAttr("sweep", sw.ID)
		a.SetAttr("cores", strconv.Itoa(sw.grid.Cores))
		a.SetAttr("units", strconv.Itoa(len(sw.units)))
		sw.span, sw.traceSC = a, a.Context()
	}

	s.sweepsSubmitted.Inc()
	s.log.Info("sweep started", "sweep", sw.ID, "cores", sw.grid.Cores,
		"mixes", len(sw.grid.Mixes), "levels", len(sw.grid.Levels), "units", len(sw.units))
	s.sweepWG.Add(1)
	go s.runSweep(sw)
	return sw, nil
}

// runSweep is the coordinator goroutine: it runs the units with
// 2x Workers in flight, waits for every unit to resolve, and
// aggregates.
func (s *Server) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	sem := make(chan struct{}, 2*s.cfg.Workers)
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

// started records the job running a unit.
func (sw *Sweep) started(u *sweepUnit, jobID string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !u.status.Terminal() {
		u.status, u.jobID = StatusRunning, jobID
	}
}

// settle resolves a unit from its job's final view.
func (sw *Sweep) settle(u *sweepUnit, v JobView) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !u.status.Terminal() {
		u.status, u.cached, u.errMsg, u.result = v.Status, v.Cached, v.Error, []byte(v.Result)
	}
}

// runSweepUnit resolves one unit on this daemon's worker pool,
// retrying queue-full rejections. The per-unit span parents the unit's
// job spans through the context handed to submitPrepared.
func (s *Server) runSweepUnit(sw *Sweep, u *sweepUnit) {
	if sw.ctx.Err() != nil {
		sw.setUnit(u, StatusCancelled, "sweep cancelled")
		return
	}
	ctx := sw.ctx
	if ua := s.tracer.StartChild(sw.traceSC, "unit "+strings.Join(u.spec.Workloads, "+")); ua != nil {
		ua.SetAttr("sweep", sw.ID)
		ua.SetAttr("key", u.key)
		if u.spec.Ideal {
			ua.SetAttr("ideal", "true")
		} else {
			ua.SetAttr("sharing", u.spec.Sharing)
		}
		ctx = dtrace.With(sw.ctx, ua.Context())
		defer func() {
			sw.mu.Lock()
			st := u.status
			sw.mu.Unlock()
			ua.SetAttr("status", string(st))
			ua.End()
		}()
	}
	cfg, err := u.spec.BuildConfig()
	if err != nil {
		sw.setUnit(u, StatusFailed, err.Error())
		return
	}
	var job *Job
	for {
		j, err := s.submitPrepared(ctx, cfg, u.key, sw.spec.TimeoutMS)
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

	sw.started(u, job.ID)
	select {
	case <-job.Done():
	case <-sw.ctx.Done():
		s.cancelJob(job)
		<-job.Done()
	}
	sw.settle(u, job.View(true))
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
				msg = fmt.Sprintf("unit %v %s: %s", u.spec.Workloads, u.spec.Sharing, u.errMsg)
				break
			}
		}
		sw.mu.Unlock()
	case p.Cancelled > 0:
		st, msg = StatusCancelled, "sweep cancelled"
	default:
		b, err := scoreSweep(sw.grid, sw.units)
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
		sw.span.End()
	}
	sw.finish(st, result, msg)
	s.log.Info("sweep finished", "sweep", sw.ID, "status", sw.Status(),
		"done", p.Done, "failed", p.Failed, "cancelled", p.Cancelled,
		"cache_hits", p.CacheHits)
}

// scoreSweep reads each unit's per-core cycles out of its result bytes
// and scores them with the grid, so the sweep's result is byte-identical
// to a local run of the same grid.
func scoreSweep(g experiments.SharingGrid, units []*sweepUnit) ([]byte, error) {
	cells := make([][]int64, g.Len())
	ideal := make(map[string]int64)
	for i, u := range units {
		var res struct{ Cores []struct{ Cycles int64 } } // a sim.Result's cycles
		if err := json.Unmarshal(u.result, &res); err != nil {
			return nil, fmt.Errorf("unit %v %s: %w", u.spec.Workloads, u.spec.Sharing, err)
		}
		cycles := make([]int64, len(res.Cores))
		for k, c := range res.Cores {
			cycles[k] = c.Cycles
		}
		if i < len(cells) {
			cells[i] = cycles
		} else if len(cycles) > 0 {
			ideal[u.spec.Workloads[0]] = cycles[0]
		}
	}
	res, err := g.Score(cells, ideal)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
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
	if sw, ok := s.sweeps.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, sw.View(r.URL.Query().Get("jobs") == "true"))
	}
}

// handleSweepList is GET /v1/sweeps: sweeps in submission order, paged
// exactly like GET /v1/jobs.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	page, next, err := s.sweeps.page(r.URL.Query())
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

// handleSweepCancel is DELETE /v1/sweeps/{id}: outstanding units
// resolve as cancelled and in-flight jobs are cancelled.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.lookup(w, r)
	if !ok {
		return
	}
	sw.cancel()
	s.log.Info("sweep cancel requested", "sweep", sw.ID)
	writeJSON(w, http.StatusOK, sw.View(false))
}

// handleSweepEvents is GET /v1/sweeps/{id}/events: serveEvents with
// the sweep's rollup as the "progress" payload and the aggregated
// SharingResult bytes as the "result" event.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.sweeps.lookup(w, r); ok {
		s.serveEvents(w, r, &sw.lifecycle, eventFeed{progress: func() any { return sw.Progress() }})
	}
}
