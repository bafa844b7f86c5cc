package main

import (
	"runtime"
	"time"
)

// timing is one measured operation: per-call time in µs, one sample per
// round, and heap allocations per call.
type timing struct {
	us     []float64
	allocs float64
}

func (t timing) median() float64 { return median(t.us) }

// timeCalls times fn in rounds of n calls, with n calibrated so a round
// lasts about target, and then counts its allocations per call over
// another n calls. fn(i) gets a fresh index on every call, so callers
// that need a new cache key per call can derive one from it.
func timeCalls(rounds int, target time.Duration, fn func(i int) error) (timing, error) {
	i := 0
	call := func() error { err := fn(i); i++; return err }
	// Calibrate: double n until a round takes at least target/4.
	n := 1
	for {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			if err := call(); err != nil {
				return timing{}, err
			}
		}
		if el := time.Since(t0); el >= target/4 || n >= 1<<20 {
			if el > 0 {
				n = max(1, int(float64(n)*float64(target)/float64(el)))
			}
			break
		}
		n *= 2
	}
	var t timing
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			if err := call(); err != nil {
				return timing{}, err
			}
		}
		t.us = append(t.us, float64(time.Since(t0))/float64(time.Microsecond)/float64(n))
	}
	a, err := allocsPerCall(n, call)
	t.allocs = a
	return t, err
}

// allocsPerCall counts process-wide heap allocations over n calls, so
// allocations made by in-process server goroutines on the caller's
// behalf are included.
func allocsPerCall(n int, call func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < n; k++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
