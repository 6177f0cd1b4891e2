package mem

import (
	"fmt"
	"testing"
	"testing/quick"
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
	r := &Request{Core: 1, VAddr: 0x1000, Addr: 0x2000, Size: 64, Kind: Write, Class: Data}
	want := "req{core=1 DW va=0x1000 pa=0x2000 sz=64}"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero queue should be empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(&Request{VAddr: uint64(i)})
	}
	if q.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if r := q.RemoveAt(0); r.VAddr != uint64(i) {
			t.Fatalf("RemoveAt(0) = %v, want va %d", r, i)
		}
	}
	if !q.Empty() {
		t.Error("queue not empty after removing every request")
	}
}

// TestQueuePeekDoesNotRemove: peeking at the head with At(0) leaves
// the queue as it was, and RemoveAt(0) then takes that same request.
func TestQueuePeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(&Request{VAddr: 7})
	if q.At(0).VAddr != 7 || q.Len() != 1 {
		t.Error("At(0) changed the queue")
	}
	if q.At(0) != q.RemoveAt(0) || !q.Empty() {
		t.Error("At(0) and RemoveAt(0) disagree")
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue
	next := uint64(0)
	expect := uint64(0)
	// Exercise ring wraparound with interleaved operations.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(&Request{VAddr: next})
			next++
		}
		for i := 0; i < 5; i++ {
			r := q.RemoveAt(0)
			if r.VAddr != expect {
				t.Fatalf("round %d: got %d, want %d", round, r.VAddr, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if r := q.RemoveAt(0); r.VAddr != expect {
			t.Fatalf("drain: got %d, want %d", r.VAddr, expect)
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
		q.Push(&Request{VAddr: uint64(i)})
	}
	q.RemoveAt(0)
	q.RemoveAt(0) // head offset 2
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).VAddr; got != uint64(i+2) {
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
		q.Push(&Request{VAddr: uint64(i)})
	}
	r := q.RemoveAt(2)
	if r.VAddr != 2 {
		t.Fatalf("RemoveAt(2) = %d", r.VAddr)
	}
	want := []uint64{0, 1, 3, 4, 5}
	for i, w := range want {
		if got := q.At(i).VAddr; got != w {
			t.Errorf("after removal At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestQueueRemoveAtHeadAndTail(t *testing.T) {
	var q Queue
	for i := 0; i < 4; i++ {
		q.Push(&Request{VAddr: uint64(i)})
	}
	if q.RemoveAt(0).VAddr != 0 {
		t.Error("RemoveAt(0) wrong")
	}
	if q.RemoveAt(q.Len()-1).VAddr != 3 {
		t.Error("RemoveAt(last) wrong")
	}
	if q.Len() != 2 || q.At(0).VAddr != 1 || q.At(1).VAddr != 2 {
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
				q.Push(&Request{VAddr: next})
				next++
			} else if q.Len() > 0 {
				if q.RemoveAt(0).VAddr != expect {
					return false
				}
				expect++
			}
		}
		for q.Len() > 0 {
			if q.RemoveAt(0).VAddr != expect {
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
			q.Push(&Request{VAddr: next})
			next++
		}
		for i := 0; i < n; i++ {
			push()
		}
		for i := 0; i < pops; i++ {
			q.RemoveAt(0)
		}
		// Refill past the ring's end so the queue wraps around it.
		for i := 0; i < int(refillRaw%20); i++ {
			push()
		}
		if q.Len() == 0 {
			return true
		}
		idx := int(idxRaw) % q.Len()
		want := q.At(idx).VAddr
		got := q.RemoveAt(idx).VAddr
		if got != want {
			return false
		}
		push()
		// Remaining elements keep relative order.
		prev := int64(-1)
		for i := 0; i < q.Len(); i++ {
			id := int64(q.At(i).VAddr)
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
	q.Push(&Request{VAddr: 1})
	q.Push(&Request{VAddr: 2})
	fmt.Println(q.RemoveAt(0).VAddr, q.RemoveAt(0).VAddr)
	// Output: 1 2
}
