package engine

// Tests of run scratch reuse (scratch.go): a burst's frames all come
// back to their producer, and a run stopped by cancellation or a budget
// leaves the pools fit for the next run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/storage"
)

// TestScratchRecycleRingsReturnBurst sends a burst of frames — more
// than a recycle ring of a sixteenth of the data ring held — from one
// worker to another, twice. The consumer hands every frame of the first
// burst back, so the second burst is built from them and allocates no
// frame at all.
func TestScratchRecycleRingsReturnBurst(t *testing.T) {
	const batch, frames = 8, 1000
	run := newTestRun(t, tcSrc, arcSchemas(), cycleEDB(4), Options{Workers: 2, BatchSize: batch})
	run.widen() // full-size rings, as the worker goroutines have them
	src, dst := run.workers[0], run.workers[1]
	src.freeFrames = nil // frames an earlier run left in the pooled scratch
	if c := run.ringCap(); c < frames {
		t.Fatalf("data ring holds %d frames; the burst would block", c)
	}
	wire := make(storage.Tuple, 2)
	burst := func() {
		b := src.outBufs[1][0][0]
		for i := 0; i < frames*batch; i++ {
			wire[0], wire[1] = storage.IntVal(int64(i)), storage.IntVal(int64(i+1))
			b.add(storage.HashValues(wire), wire)
		}
		src.flushAll()
		if got := dst.gather(); got != frames*batch {
			t.Fatalf("consumer gathered %d tuples, want %d", got, frames*batch)
		}
	}
	burst()
	if src.freshFrames != frames {
		t.Fatalf("first burst allocated %d frames, want %d", src.freshFrames, frames)
	}
	burst()
	if extra := src.freshFrames - frames; extra != 0 {
		t.Fatalf("second identical burst allocated %d frames, want 0", extra)
	}
}

// TestScratchInterruptedRunThenFreshRun stops a diverging run by
// cancellation, by MaxTuples and by MaxLocalIters — on the cooperative
// path and fully parallel, under each strategy — with every released
// buffer poisoned. The run after each must compute TC exactly, and no
// goroutine may outlive either.
func TestScratchInterruptedRunThenFreshRun(t *testing.T) {
	SetPoisonOnRelease(t)
	diverging := compileSrc(t, divergingSrc, arcSchemas(), nil)
	tc := compileSrc(t, tcSrc, arcSchemas(), nil)
	edges := randGraph(rand.New(rand.NewSource(13)), 60, 240)
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	var want []string
	for p := range refTC(edges) {
		want = append(want, fmt.Sprintf("%d,%d", p[0], p[1]))
	}
	sort.Strings(want)

	interrupts := []struct {
		name string
		opts Options
		// timeout, when set, cancels the run by deadline.
		timeout time.Duration
	}{
		{"cancel", Options{}, 20 * time.Millisecond},
		{"max-tuples", Options{MaxTuples: 3000}, 0},
		{"max-iters", Options{MaxLocalIters: 20}, 0},
	}
	for _, limit := range []int64{0, coopThreshold} {
		for _, in := range interrupts {
			for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
				t.Run(fmt.Sprintf("%s/%s/%s", limitName(limit), in.name, strat), func(t *testing.T) {
					SetCoopLimit(t, limit)
					base := runtime.NumGoroutine()
					ctx := context.Background()
					if in.timeout > 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, in.timeout)
						defer cancel()
					}
					opts := in.opts
					opts.Workers, opts.Strategy = 4, strat
					_, err := RunContext(ctx, diverging, cycleEDB(64), opts)
					var ce *CanceledError
					if in.timeout > 0 && !errors.As(err, &ce) || in.timeout == 0 && !errors.Is(err, ErrBudgetExceeded) {
						t.Fatalf("interrupted run: err = %v", err)
					}
					res, err := Run(tc, edb, Options{Workers: 4, Strategy: strat})
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedRows(res.Relations["tc"]); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("run after the interrupted one: %d tuples, want %d", len(got), len(want))
					}
					if n := waitGoroutines(base, time.Second); n > base {
						t.Fatalf("goroutines leaked: %d before, %d after", base, n)
					}
				})
			}
		}
	}
}
