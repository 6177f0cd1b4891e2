// Package systolic provides an analytical timing model of a systolic
// array executing GEMM, in the style of SCALE-Sim, which mNPUsim's
// compute model follows. The paper implements the output-stationary
// dataflow only (weight-stationary is listed as future work); Array.GEMM
// models it and is every preset's dataflow. Weight-stationary is
// modelled too (dataflow.go, Array.GEMMWith), for the dataflow ablation
// and for configurations that select it.
package systolic

import "fmt"

// Array is a Rows x Cols grid of processing elements, each performing
// one multiply-accumulate per cycle.
type Array struct {
	Rows int
	Cols int
}

// Validate reports an error on a degenerate geometry.
func (a Array) Validate() error {
	if a.Rows <= 0 || a.Cols <= 0 {
		return fmt.Errorf("systolic: array must be positive, got %dx%d", a.Rows, a.Cols)
	}
	return nil
}

// PEs returns the number of processing elements.
func (a Array) PEs() int { return a.Rows * a.Cols }

func (a Array) String() string { return fmt.Sprintf("%dx%d", a.Rows, a.Cols) }

// Cost is the timing result for one GEMM on the array.
type Cost struct {
	// Cycles is the total NPU-clock cycles occupied by the array.
	Cycles int64
	// MACs is the number of useful multiply-accumulates (M*K*N).
	MACs int64
	// Folds is the number of output-tile passes over the array.
	Folds int64
}

// Utilization returns MACs / (PEs * Cycles): the fraction of PE-cycles
// doing useful work, the paper's PE-utilization output.
func (c Cost) Utilization(a Array) float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.MACs) / (float64(a.PEs()) * float64(c.Cycles))
}

// GEMM returns the cost of an M x K x N matrix multiplication
// (A[M,K] * B[K,N]) under the output-stationary dataflow.
//
// The output is tiled into ceil(M/Rows) x ceil(N/Cols) folds. In each
// fold every PE accumulates one output element: operands are skewed into
// the array over its occupied rows, K partial products accumulate over K
// cycles, and results drain over its occupied columns, giving
// K + rows + cols - 2 cycles per fold (the SCALE-Sim output-stationary
// formula, with the skew/drain lengths of the fold actually computed —
// a fold occupying one row fills in one cycle, not Rows cycles).
// Summed over the fold grid this gives the closed form below: the
// occupied rows of a column of folds total M and the occupied columns
// of a row of folds total N.
//
// If a dimension is smaller than the array (e.g. a thin tensor on a
// 128-wide array), whole rows or columns of PEs idle for the entire
// fold — the under-utilization that motivates multi-core NPUs (§2.1).
func (a Array) GEMM(m, k, n int) Cost {
	if m <= 0 || k <= 0 || n <= 0 {
		return Cost{}
	}
	foldsM := int64(ceilDiv(m, a.Rows))
	foldsN := int64(ceilDiv(n, a.Cols))
	folds := foldsM * foldsN
	cycles := folds*int64(k-2) + foldsN*int64(m) + foldsM*int64(n)
	return Cost{
		Cycles: cycles,
		MACs:   int64(m) * int64(k) * int64(n),
		Folds:  folds,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
