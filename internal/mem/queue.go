package mem

// Queue is a FIFO of requests backed by a ring buffer whose capacity is
// a power of two, so a position wraps by mask. The zero value is an
// empty queue ready to use.
type Queue struct {
	buf  []*Request
	head int
	n    int
}

// Len reports the number of queued requests.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no requests.
func (q *Queue) Empty() bool { return q.n == 0 }

// Push appends r to the tail of the queue.
func (q *Queue) Push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = r
	q.n++
}

// At returns the i-th request from the head without removing it. It
// panics if i is out of range.
func (q *Queue) At(i int) *Request {
	if i < 0 || i >= q.n {
		//lint:allow nolibpanic mirrors the built-in slice bounds panic; callers index within Len() by construction
		panic("mem: queue index out of range")
	}
	return q.buf[q.slot(i)]
}

// slot returns the ring index of the i-th request from the head.
func (q *Queue) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// RemoveAt removes and returns the i-th request from the head,
// preserving the order of the remaining requests. It shifts the head
// side up by one, so it costs O(i): callers remove near the head (the
// MMU's drain window), whatever the queue's length.
func (q *Queue) RemoveAt(i int) *Request {
	if i < 0 || i >= q.n {
		//lint:allow nolibpanic mirrors the built-in slice bounds panic; callers index within Len() by construction
		panic("mem: queue index out of range")
	}
	r := q.buf[q.slot(i)]
	for j := i; j > 0; j-- {
		q.buf[q.slot(j)] = q.buf[q.slot(j-1)]
	}
	q.buf[q.head] = nil
	q.head = q.slot(1)
	q.n--
	return r
}

func (q *Queue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]*Request, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[q.slot(i)]
	}
	q.buf = nb
	q.head = 0
}
