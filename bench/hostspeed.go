package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// probeNominal is what one hostProbe takes on the host the benchmark was
// calibrated on (a 2-CPU Linux VM; README.md). A run's host factor is
// probeNominal over the median probe time of the run.
const probeNominal = 16 * time.Millisecond

// probeBuf is the input hostProbe hashes.
var probeBuf = make([]byte, 256<<10)

// probeSink keeps hostProbe's results live.
var probeSink int

// hostProbe times a fixed piece of single-threaded CPU work that does not
// depend on the program under test: hashing, then map updates with
// periodic sorting, which allocate and hash like the simulator does. On a shared host the time of the same simulation, or of
// the same job traffic, drifts by up to a third over minutes, and this
// probe's time drifts with it, so timings scaled by probeNominal over the
// probe's median compare across runs made at different times.
func hostProbe() time.Duration {
	t := time.Now()
	for k := range 32 {
		s := sha256.Sum256(probeBuf)
		probeBuf[k] ^= s[0]
	}
	m := map[int]int{}
	keys := make([]int, 0, 1024)
	for i := range 120000 {
		k := (i * 2654435761) & 0x3fff
		m[k] += i
		keys = append(keys, k)
		if len(keys) == cap(keys) {
			slices.Sort(keys)
			keys = keys[:0]
		}
	}
	probeSink += len(m) + int(probeBuf[0])
	return time.Since(t)
}

// probeHost runs n host probes and records their times in out.probes.
// It runs while the program under test is idle, so that what the probes
// measure is the host, not the program.
func probeHost(out *outcome, n int) {
	for range n {
		out.probes = append(out.probes, hostProbe())
	}
}

// hostFactor is probeNominal over the median of probes: above 1 on a host
// running faster than the calibration host, below 1 on a slower one.
func hostFactor(probes []time.Duration) float64 {
	return float64(probeNominal) / 1e6 / percentileMS(probes, 50)
}
