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

// sweepUnit is the state of one grid unit (experiments.Grid.Unit): a
// (mix, level) cell, or one workload's Ideal baseline. The unit list is
// the sweep's unit of accounting — each unit resolves to exactly one
// terminal status. A unit keeps only its key: Grid.Each builds its
// config again when the unit runs (UnitConfig is deterministic, so the
// key still names it), and a finished unit keeps no result bytes, so a
// sweep of thousands of units holds neither configs nor results.
type sweepUnit struct {
	key string

	// Written under the owning sweep's mu.
	status Status
	jobID  string
	cached bool
	errMsg string
}

// Sweep is one experiment-grid resource: an experiments.SharingGrid run
// by Grid.Each with each unit a job on the daemon's queue, and scored
// by the grid into its SharingResult.
type Sweep struct {
	lifecycle

	spec  SweepSpec
	scale workloads.Scale
	grid  experiments.SharingGrid
	// units[i] is grid unit i: the cells first, then one Ideal
	// baseline per workload in grid.Ideals() order.
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
			mix, sharing := sw.unitName(i)
			v.Jobs[i] = api.SweepJobView{
				Workloads: mix, Sharing: sharing, Ideal: sharing == "",
				Key: u.key, JobID: u.jobID,
				Status: u.status, Cached: u.cached, Error: u.errMsg,
			}
		}
	}
	return v
}

// unitName names unit i from the grid: its mix and sharing level, or
// its workload and "" for an Ideal baseline.
func (sw *Sweep) unitName(i int) (mix []string, sharing string) {
	mix, lv, baseline := sw.grid.Unit(i)
	if baseline {
		return mix, ""
	}
	return mix, lv.String()
}

// expandSweep validates a spec and fingerprints its SharingGrid's
// units: the cells in the grid's enumeration order, then the grid's
// Ideal baselines.
func expandSweep(spec SweepSpec) (*Sweep, error) {
	scaleName := spec.Scale
	if scaleName == "" {
		scaleName = "tiny"
	}
	scale, err := config.ParseScale(scaleName)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
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
	if spec.TimeoutMS < 0 {
		return nil, errf(http.StatusBadRequest, "sweep timeout_ms must be >= 0, got %d", spec.TimeoutMS)
	}

	sw := &Sweep{spec: spec, scale: scale, grid: experiments.SharingGrid{
		Cores: cores, Levels: levels,
		Mixes: experiments.Mixes(names, cores, spec.Sample, spec.Seed),
	}}
	r := experiments.NewRunner(experiments.WithScale(scale))
	sw.units = make([]*sweepUnit, sw.grid.Units())
	for i := range sw.units {
		cfg, err := sw.grid.UnitConfig(r, i)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		key, err := cfg.Fingerprint()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		sw.units[i] = &sweepUnit{key: key, status: StatusQueued}
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

// runSweep is the coordinator goroutine: Grid.Each runs the units on a
// Runner bound to the sweep's context and scale, 2x Workers in flight,
// each unit a job on the daemon's queue. Units it never started resolve
// as cancelled once it returns; then the sweep is classified.
func (s *Server) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	r := experiments.NewRunner(experiments.WithContext(sw.ctx), experiments.WithScale(sw.scale),
		experiments.WithWorkers(2*s.cfg.Workers))
	res, err := sw.grid.Each(r, func(i int, cfg sim.Config) ([]int64, error) {
		return s.runSweepUnit(sw, i, cfg)
	})
	for _, u := range sw.units {
		sw.setUnit(u, StatusCancelled, "sweep cancelled")
	}
	s.finishSweep(sw, res, err)
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
		u.status, u.cached, u.errMsg = v.Status, v.Cached, v.Error
	}
}

// runSweepUnit runs unit i as a job on this daemon's queue, retrying
// queue-full rejections, and returns the job's per-core cycles. The
// per-unit span parents the unit's job spans through the context
// handed to submitPrepared.
func (s *Server) runSweepUnit(sw *Sweep, i int, cfg sim.Config) ([]int64, error) {
	u := sw.units[i]
	if err := sw.ctx.Err(); err != nil {
		sw.setUnit(u, StatusCancelled, "sweep cancelled")
		return nil, err
	}
	ctx := sw.ctx
	mix, sharing := sw.unitName(i)
	if ua := s.tracer.StartChild(sw.traceSC, "unit "+strings.Join(mix, "+")); ua != nil {
		ua.SetAttr("sweep", sw.ID)
		ua.SetAttr("key", u.key)
		if sharing == "" {
			ua.SetAttr("ideal", "true")
		} else {
			ua.SetAttr("sharing", sharing)
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
			return nil, err
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-sw.ctx.Done():
			sw.setUnit(u, StatusCancelled, "sweep cancelled")
			return nil, sw.ctx.Err()
		}
	}

	sw.started(u, job.ID)
	select {
	case <-job.Done():
	case <-sw.ctx.Done():
		s.cancelJob(job)
		<-job.Done()
	}
	v := job.View(true)
	var res struct{ Cores []struct{ Cycles int64 } } // a sim.Result's cycles
	if v.Status == StatusDone {
		if err := json.Unmarshal(v.Result, &res); err != nil {
			v.Status, v.Error = StatusFailed, fmt.Sprintf("decoding result: %v", err)
		}
	}
	sw.settle(u, v)
	if v.Status != StatusDone {
		return nil, fmt.Errorf("serve: sweep unit %s: %s", v.Status, v.Error)
	}
	cycles := make([]int64, len(res.Cores))
	for k, c := range res.Cores {
		cycles[k] = c.Cycles
	}
	return cycles, nil
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

// finishSweep classifies the resolved unit set, and stores the grid's
// scores when every unit is done.
func (s *Server) finishSweep(sw *Sweep, res experiments.SharingResult, runErr error) {
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
		for i, u := range sw.units {
			if u.status == StatusFailed {
				mix, sharing := sw.unitName(i)
				msg = fmt.Sprintf("unit %v %s: %s", mix, sharing, u.errMsg)
				break
			}
		}
		sw.mu.Unlock()
	case p.Cancelled > 0:
		st, msg = StatusCancelled, "sweep cancelled"
	case runErr != nil:
		st, msg = StatusFailed, fmt.Sprintf("aggregating: %v", runErr)
	default:
		b, err := json.Marshal(res)
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
