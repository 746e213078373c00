package ivf

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func probeRange(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestScanProbesParallelCoversAllProbes(t *testing.T) {
	const n = 257
	var seen [n]atomic.Int32
	err := scanProbesParallel(probeRange(n), 4, func() func(int32) error {
		return func(p int32) error {
			seen[p].Add(1)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("probe %d scanned %d times, want exactly 1", i, got)
		}
	}
}

// Regression: a worker error used to end only that worker's loop; its
// siblings kept scanning every leftover probe, wasting work and delaying
// error propagation. The shared cancel flag must stop the pool promptly.
func TestScanProbesParallelCancelsOnError(t *testing.T) {
	const n = 1000
	boom := errors.New("bucket scan failed")
	var scanned atomic.Int64
	err := scanProbesParallel(probeRange(n), 4, func() func(int32) error {
		return func(p int32) error {
			if p == 0 {
				return boom // the very first probe fails
			}
			scanned.Add(1)
			time.Sleep(200 * time.Microsecond)
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Without cancellation the three surviving workers scan all ~999
	// remaining probes; with it they stop at their next cursor check.
	if got := scanned.Load(); got > n/10 {
		t.Errorf("workers scanned %d probes after the error, want early cancellation", got)
	}
}

func TestScanProbesParallelFirstErrorWins(t *testing.T) {
	boom := errors.New("scan error")
	err := scanProbesParallel(probeRange(64), 8, func() func(int32) error {
		return func(p int32) error { return boom }
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want scan error, got %v", err)
	}
	if err := scanProbesParallel(nil, 8, func() func(int32) error {
		return func(p int32) error { return errors.New("must not run") }
	}); err != nil {
		t.Fatalf("empty probe list: %v", err)
	}
}
