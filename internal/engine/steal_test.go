package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/datasets"
	"repro/internal/storage"
)

// hubEDB builds a hub-skewed arc relation: Zipf-distributed sources
// concentrate most out-edges on a few nodes, so the hash partitions
// holding the hubs' join keys receive most of each recursive delta.
func hubEDB(n int64, m int, seed int64) map[string][]storage.Tuple {
	edges := datasets.Hub(n, m, 1.5, seed)
	return map[string][]storage.Tuple{"arc": datasets.EdgeTuples(edges)}
}

// TestStealDifferentialSkewed runs TC over a hub-skewed graph with the
// morsel scheduler on and off, under every strategy and several worker
// counts, and requires identical result relations. Stealing moves
// computation, never ownership — derived tuples route through the same
// hash partitioning either way, so the fixpoint must be bit-identical.
func TestStealDifferentialSkewed(t *testing.T) {
	edb := hubEDB(300, 1500, 11)
	prog := compileSrc(t, tcSrc, arcSchemas(), nil)
	for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-w%d", strat, workers), func(t *testing.T) {
				off, err := Run(prog, edb, Options{Workers: workers, Strategy: strat, StealOff: true})
				if err != nil {
					t.Fatal(err)
				}
				on, err := Run(prog, edb, Options{Workers: workers, Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				gotOff := sortedRows(off.Relations["tc"])
				gotOn := sortedRows(on.Relations["tc"])
				if len(gotOn) != len(gotOff) {
					t.Fatalf("row count diverged: steal on %d, off %d", len(gotOn), len(gotOff))
				}
				for i := range gotOn {
					if gotOn[i] != gotOff[i] {
						t.Fatalf("row %d diverged: %q vs %q", i, gotOn[i], gotOff[i])
					}
				}
				if n := off.Stats.Steal.MorselsExecuted; n != 0 {
					t.Fatalf("StealOff run executed %d morsels", n)
				}
			})
		}
	}
}

// TestStealStatsSkewed checks the scheduler's observability surface on
// the workload it exists for: a skewed run at 4 workers must publish
// morsels to the steal plane (a 1-worker run must publish none), record
// per-worker busy time for every worker, and — whenever any morsel was actually stolen — not be more
// imbalanced than the same run with stealing off (with slack, since
// busy-time measurement has coarse-clock granularity).
func TestStealStatsSkewed(t *testing.T) {
	edb := hubEDB(600, 6000, 13)
	prog := compileSrc(t, tcSrc, arcSchemas(), nil)
	opts := Options{Workers: 4, Strategy: coord.DWS}

	on, err := Run(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsOff := opts
	optsOff.StealOff = true
	off, err := Run(prog, edb, optsOff)
	if err != nil {
		t.Fatal(err)
	}

	if got := len(on.Stats.BusyTime()); got != opts.Workers {
		t.Fatalf("BusyTime() has %d entries, want %d", got, opts.Workers)
	}
	st := on.Stats.Steal
	if st.MorselsExecuted == 0 {
		t.Fatalf("skewed 4-worker run published no morsels: %+v", st)
	}
	if st.MorselsStolen > st.MorselsExecuted {
		t.Fatalf("stolen (%d) exceeds executed (%d)", st.MorselsStolen, st.MorselsExecuted)
	}
	// A single worker has no peer to share with: it publishes nothing.
	solo, err := Run(prog, edb, Options{Workers: 1, Strategy: coord.DWS})
	if err != nil {
		t.Fatal(err)
	}
	if n := solo.Stats.Steal.MorselsExecuted; n != 0 {
		t.Fatalf("1-worker run published %d morsels", n)
	}
	// Imbalance ratios live in [1, workers]; the comparison only means
	// something if thieves actually ran morsels (on one CPU the owner
	// can legitimately drain its own deque before any thief wakes).
	if ib := on.Stats.Imbalance(); ib != 0 && ib < 1-1e-9 {
		t.Fatalf("imbalance %v < 1", ib)
	}
	if st.MorselsStolen > 0 {
		ibOn, ibOff := on.Stats.Imbalance(), off.Stats.Imbalance()
		if ibOn > ibOff*1.5+0.25 {
			t.Fatalf("stealing worsened imbalance: on %.3f, off %.3f", ibOn, ibOff)
		}
	}
}

// TestStealCancelMidFixpoint cancels an unbounded recursion whose
// per-worker deltas are large enough to keep the steal plane active
// (cycle of 4096 ≫ 4 workers × the 256-row block size): the run must
// abort promptly with context.Canceled under every strategy — with
// morsels possibly in flight on peers' deques — and leak no
// goroutines. This is the termination-soundness check for the thief
// path: outstanding-morsel joins may not wedge on a canceled worker.
func TestStealCancelMidFixpoint(t *testing.T) {
	for _, strat := range []coord.Kind{coord.DWS, coord.SSP, coord.Global} {
		t.Run(strat.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			prog := compileSrc(t, divergingSrc, arcSchemas(), nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, prog, cycleEDB(4096),
					Options{Workers: 4, Strategy: strat})
				done <- err
			}()

			time.Sleep(30 * time.Millisecond) // let sharing and stealing spin up
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancel did not stop the evaluation within 2s")
			}
			if n := waitGoroutines(base, time.Second); n > base {
				t.Fatalf("goroutines leaked: %d before, %d after", base, n)
			}
		})
	}
}
