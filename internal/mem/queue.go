package mem

// Queue is a FIFO of requests backed by a ring buffer. The zero value is
// an empty queue ready to use.
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
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

// At returns the i-th request from the head without removing it. It
// panics if i is out of range.
func (q *Queue) At(i int) *Request {
	if i < 0 || i >= q.n {
		//lint:allow nolibpanic mirrors the built-in slice bounds panic; callers index within Len() by construction
		panic("mem: queue index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// RemoveAt removes and returns the i-th request from the head,
// preserving the order of the remaining requests. It shifts the head
// side up by one, so it costs O(i): callers remove near the head (the
// MMU's drain window), whatever the queue's length.
func (q *Queue) RemoveAt(i int) *Request {
	if i < 0 || i >= q.n {
		//lint:allow nolibpanic mirrors the built-in slice bounds panic; callers index within Len() by construction
		panic("mem: queue index out of range")
	}
	r := q.buf[(q.head+i)%len(q.buf)]
	for j := i; j > 0; j-- {
		q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j-1)%len(q.buf)]
	}
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
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
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
