package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// parallelTestMixes is a small but representative slice of the dual
// sweep: compute-heavy, memory-heavy, and mixed pairs.
func parallelTestMixes() [][2]string {
	return [][2]string{
		{"ncf", "gpt2"},
		{"sfrnn", "res"},
		{"dlrm", "yt"},
		{"alex", "ds2"},
	}
}

// runMixes executes the mixes on a runner with the given options and
// returns the full Results in enumeration order.
func runMixes(t *testing.T, opts ...Option) []sim.Result {
	t.Helper()
	r := NewRunner(opts...)
	mixes := parallelTestMixes()
	out := make([]sim.Result, len(mixes))
	err := r.ForEach(len(mixes), func(i int) error {
		res, err := r.Dual(mixes[i][0], mixes[i][1], sim.ShareDWT)
		out[i] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != len(mixes) {
		t.Fatalf("ran %d simulations, want %d", got, len(mixes))
	}
	return out
}

// TestParallelMatchesSerial is the determinism contract of the worker
// pool: a strictly serial runner and a 4-worker runner produce
// bit-identical Results for the same mixes.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("several full simulations")
	}
	base := []Option{WithScale(workloads.ScaleTiny), WithSeed(1)}

	serial := runMixes(t, append(base, WithWorkers(1))...)

	par := runMixes(t, append(base, WithWorkers(4))...)

	for i, mix := range parallelTestMixes() {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("mix %v: parallel result differs from serial", mix)
		}
	}
}

// TestForEachOrderAndErrors pins the pool's contract without running
// simulations: every index executes, results land by index, and the
// lowest-index error wins regardless of completion order.
func TestForEachOrderAndErrors(t *testing.T) {
	r := NewRunner(WithScale(workloads.ScaleTiny), WithWorkers(8))

	var ran atomic.Int64
	got := make([]int, 100)
	if err := r.ForEach(100, func(i int) error {
		ran.Add(1)
		got[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100", ran.Load())
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}

	errLow, errHigh := errors.New("low"), errors.New("high")
	err := r.ForEach(10, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want lowest-index error", err)
	}

	// A single-worker pool still sees every index.
	serial := NewRunner(WithScale(workloads.ScaleTiny), WithWorkers(1))
	count := 0
	if err := serial.ForEach(5, func(i int) error {
		if i != count {
			t.Fatalf("serial order broken: got %d, want %d", i, count)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("serial ran %d of 5", count)
	}
}

// TestMemoSingleflight verifies concurrent Ideal calls for the same
// workload collapse to one simulation.
func TestMemoSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	r := NewRunner(WithScale(workloads.ScaleTiny), WithWorkers(8))
	results := make([]sim.CoreResult, 8)
	err := r.ForEach(8, func(i int) error {
		ib, err := r.Ideal("ncf")
		results[i] = ib
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 1 {
		t.Fatalf("8 concurrent Ideal calls ran %d simulations, want 1", got)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw a different cached result", i)
		}
	}
}
