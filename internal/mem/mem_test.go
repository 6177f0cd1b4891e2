package mem

import (
	"fmt"
	"testing"
	"testing/quick"

	"mnpusim/internal/clock"
)

func TestKindAndClassStrings(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Errorf("kind strings: %q %q", Read, Write)
	}
	if Data.String() != "D" || PageTable.String() != "PT" {
		t.Errorf("class strings: %q %q", Data, PageTable)
	}
}

func TestRequestString(t *testing.T) {
	r := &Request{ID: 3, Core: 1, VAddr: 0x1000, Addr: 0x2000, Size: 64, Kind: Write, Class: Data}
	want := "req{id=3 core=1 DW va=0x1000 pa=0x2000 sz=64}"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCompleteInvokesCallbackOnce(t *testing.T) {
	n := 0
	r := &Request{Done: func(now clock.Global, rr *Request) {
		n++
		if now != 42 {
			t.Errorf("callback now = %d, want 42", now)
		}
	}}
	r.Complete(42)
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
}

func TestCompleteNilCallbackIsSafe(t *testing.T) {
	(&Request{}).Complete(1) // must not panic
}

func TestIDAllocatorSequence(t *testing.T) {
	var a IDAllocator
	for want := uint64(1); want <= 100; want++ {
		if got := a.Next(); got != want {
			t.Fatalf("Next() = %d, want %d", got, want)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero queue should be empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(&Request{ID: uint64(i)})
	}
	if q.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		r := q.Pop()
		if r == nil || r.ID != uint64(i) {
			t.Fatalf("Pop() = %v, want id %d", r, i)
		}
	}
	if q.Pop() != nil {
		t.Error("Pop() on empty queue should return nil")
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(&Request{ID: 7})
	if q.Peek().ID != 7 || q.Len() != 1 {
		t.Error("Peek changed the queue")
	}
	if q.Peek() != q.Pop() {
		t.Error("Peek and Pop disagree")
	}
	if q.Peek() != nil {
		t.Error("Peek on empty queue should return nil")
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue
	next := uint64(0)
	expect := uint64(0)
	// Exercise ring wraparound with interleaved operations.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(&Request{ID: next})
			next++
		}
		for i := 0; i < 5; i++ {
			r := q.Pop()
			if r.ID != expect {
				t.Fatalf("round %d: got %d, want %d", round, r.ID, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if r := q.Pop(); r.ID != expect {
			t.Fatalf("drain: got %d, want %d", r.ID, expect)
		} else {
			expect++
		}
	}
	if expect != next {
		t.Fatalf("drained %d, pushed %d", expect, next)
	}
}

func TestQueueAt(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(&Request{ID: uint64(i)})
	}
	q.Pop()
	q.Pop() // head offset 2
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).ID; got != uint64(i+2) {
			t.Errorf("At(%d) = %d, want %d", i, got, i+2)
		}
	}
}

func TestQueueAtPanicsOutOfRange(t *testing.T) {
	var q Queue
	q.Push(&Request{})
	for _, i := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

func TestQueueRemoveAtPreservesOrder(t *testing.T) {
	var q Queue
	for i := 0; i < 6; i++ {
		q.Push(&Request{ID: uint64(i)})
	}
	r := q.RemoveAt(2)
	if r.ID != 2 {
		t.Fatalf("RemoveAt(2) = %d", r.ID)
	}
	want := []uint64{0, 1, 3, 4, 5}
	for i, w := range want {
		if got := q.At(i).ID; got != w {
			t.Errorf("after removal At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestQueueRemoveAtHeadAndTail(t *testing.T) {
	var q Queue
	for i := 0; i < 4; i++ {
		q.Push(&Request{ID: uint64(i)})
	}
	if q.RemoveAt(0).ID != 0 {
		t.Error("RemoveAt(0) wrong")
	}
	if q.RemoveAt(q.Len()-1).ID != 3 {
		t.Error("RemoveAt(last) wrong")
	}
	if q.Len() != 2 || q.At(0).ID != 1 || q.At(1).ID != 2 {
		t.Error("remaining order wrong")
	}
}

// Property: any sequence of pushes and pops preserves FIFO order.
func TestQuickQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var q Queue
		next, expect := uint64(0), uint64(0)
		for _, push := range ops {
			if push {
				q.Push(&Request{ID: next})
				next++
			} else if q.Len() > 0 {
				if q.Pop().ID != expect {
					return false
				}
				expect++
			}
		}
		for q.Len() > 0 {
			if q.Pop().ID != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RemoveAt(i) removes exactly the i-th element, also when
// the queue wraps around its ring buffer.
func TestQuickRemoveAt(t *testing.T) {
	f := func(nRaw, popRaw, refillRaw, idxRaw uint8) bool {
		n := int(nRaw%20) + 2
		pops := int(popRaw) % n
		var q Queue
		next := uint64(0)
		push := func() {
			q.Push(&Request{ID: next})
			next++
		}
		for i := 0; i < n; i++ {
			push()
		}
		for i := 0; i < pops; i++ {
			q.Pop()
		}
		// Refill past the ring's end so the queue wraps around it.
		for i := 0; i < int(refillRaw%20); i++ {
			push()
		}
		if q.Len() == 0 {
			return true
		}
		idx := int(idxRaw) % q.Len()
		want := q.At(idx).ID
		got := q.RemoveAt(idx).ID
		if got != want {
			return false
		}
		push()
		// Remaining elements keep relative order.
		prev := int64(-1)
		for i := 0; i < q.Len(); i++ {
			id := int64(q.At(i).ID)
			if id <= prev || id == int64(want) {
				return false
			}
			prev = id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func ExampleQueue() {
	var q Queue
	q.Push(&Request{ID: 1})
	q.Push(&Request{ID: 2})
	fmt.Println(q.Pop().ID, q.Pop().ID)
	// Output: 1 2
}
