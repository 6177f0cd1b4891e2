package serve

import (
	"context"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// lifecycle is the state a job and a sweep both carry from submission
// to a terminal status. Job and Sweep embed it; the store assigns its
// ID and the SSE writer streams it.
type lifecycle struct {
	// ID is the store-assigned handle ("j1", "s1", ...).
	ID string

	// ctx governs the record end to end: cancel ends it on DELETE and
	// at finish, and shutdown's drain deadline ends it through the
	// server's base context, its parent.
	ctx    context.Context
	cancel context.CancelFunc

	// eventSeq numbers the record's SSE events; it lives on the record,
	// not the stream, so ids stay monotonic across client reconnects.
	eventSeq atomic.Int64

	// mu guards status, result and errMsg, and the embedding record's
	// own mutable fields.
	mu       sync.Mutex
	status   Status
	result   []byte
	errMsg   string
	done     chan struct{}
	doneOnce sync.Once
}

// start readies a new record in state st, governed by a child of
// parent.
func (l *lifecycle) start(parent context.Context, st Status) {
	l.ctx, l.cancel = context.WithCancel(parent)
	l.status = st
	l.done = make(chan struct{})
}

// life gives the generic store the lifecycle its records embed.
func (l *lifecycle) life() *lifecycle { return l }

// Done returns a channel closed when the record reaches a terminal
// state.
func (l *lifecycle) Done() <-chan struct{} { return l.done }

// Status returns the record's current lifecycle state.
func (l *lifecycle) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.status
}

// outcome snapshots the status with the result bytes and error message.
func (l *lifecycle) outcome() (st Status, result []byte, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.status, l.result, l.errMsg
}

// finish moves the record to a terminal state exactly once: the first
// call sets status, result and error, later calls change none of them.
// Every call closes the done channel and releases the context.
func (l *lifecycle) finish(st Status, result []byte, errMsg string) {
	l.mu.Lock()
	if !l.status.Terminal() {
		l.status, l.result, l.errMsg = st, result, errMsg
	}
	l.mu.Unlock()
	l.doneOnce.Do(func() { close(l.done) })
	l.cancel()
}

// store holds one kind of record, jobs or sweeps, in submission order.
// It assigns IDs, answers lookups, pages listings, and forgets the
// oldest terminal records beyond its retention bound.
type store[T interface{ life() *lifecycle }] struct {
	prefix string // ID prefix, "j" or "s"
	noun   string // "job" or "sweep", for 404 messages
	max    int

	mu    sync.Mutex
	next  int
	byID  map[string]T
	order []string // IDs in submission order
}

func newStore[T interface{ life() *lifecycle }](prefix, noun string, max int) *store[T] {
	return &store[T]{prefix: prefix, noun: noun, max: max, byID: make(map[string]T)}
}

// add assigns rec the next ID and records it. While more than max
// records are held it forgets the oldest terminal one; a live record is
// never evicted, so the store outgrows max rather than drop state.
func (st *store[T]) add(rec T) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := st.prefix + strconv.Itoa(st.next)
	rec.life().ID = id
	st.byID[id] = rec
	st.order = append(st.order, id)
	for len(st.byID) > st.max {
		i := slices.IndexFunc(st.order, func(id string) bool { return st.byID[id].life().Status().Terminal() })
		if i < 0 {
			break
		}
		delete(st.byID, st.order[i])
		if i == 0 {
			st.order = st.order[1:] // the usual case; no copy
		} else {
			st.order = slices.Delete(st.order, i, i+1)
		}
	}
}

// get looks a record up by ID.
func (st *store[T]) get(id string) (T, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.byID[id]
	return rec, ok
}

// lookup resolves the request's {id} path value, answering 404 itself
// when the store holds no such record.
func (st *store[T]) lookup(w http.ResponseWriter, r *http.Request) (T, bool) {
	rec, ok := st.get(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no such %s %q", st.noun, r.PathValue("id")))
	}
	return rec, ok
}

// len returns the number of records held.
func (st *store[T]) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// page is the one paginator behind GET /v1/jobs and GET /v1/sweeps. It
// walks the records in submission order, keeps those matching
// ?status=, starts after ?cursor= (the ID of the last record of the
// previous page), and stops at ?limit= records (default 100, max 1000).
// next is the cursor of the following page, empty on the last one.
func (st *store[T]) page(q url.Values) (page []T, next string, err error) {
	var filter Status
	if v := q.Get("status"); v != "" {
		filter = Status(v)
		switch filter {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		default:
			return nil, "", errf(http.StatusBadRequest, "unknown status filter %q", v)
		}
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, "", errf(http.StatusBadRequest, "bad limit %q", v)
		}
		limit = min(n, 1000)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	start := 0
	if cursor := q.Get("cursor"); cursor != "" {
		i := slices.Index(st.order, cursor)
		if i < 0 {
			return nil, "", errf(http.StatusBadRequest, "unknown cursor %q", cursor)
		}
		start = i + 1
	}
	last := ""
	for _, id := range st.order[start:] {
		rec := st.byID[id]
		if filter != "" && rec.life().Status() != filter {
			continue
		}
		if len(page) == limit {
			return page, last, nil
		}
		page = append(page, rec)
		last = id
	}
	return page, "", nil
}
