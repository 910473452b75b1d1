package engine

// Tests of the cooperative start (coop.go): every threshold computes
// the same relations, the hand-off is sound from any intermediate
// state, budgets and cancellation keep their typed errors on both
// sides of it, and a tiny run starts no goroutine and allocates no
// ring.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/physical"
	"repro/internal/queueing"
	"repro/internal/storage"
)

const neverWiden = math.MaxInt64

func limitName(limit int64) string {
	switch limit {
	case 0:
		return "parallel"
	case neverWiden:
		return "never-widen"
	}
	return fmt.Sprintf("limit%d", limit)
}

const sgSrc = `
	sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
	sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
`

// newTestRun builds the stratumRun of a one-stratum program the way
// RunContext would, without running it, so a test can drive the
// phases itself.
func newTestRun(t *testing.T, src string, schemas map[string]*storage.Schema,
	edb map[string][]storage.Tuple, opts Options) *stratumRun {
	t.Helper()
	prog := compileSrc(t, src, schemas, nil)
	if len(prog.Strata) != 1 {
		t.Fatalf("program has %d strata, want 1", len(prog.Strata))
	}
	opts = opts.withDefaults()
	store := newRelStore(prog.Plan.Analysis.Schemas)
	for name := range prog.Plan.Analysis.EDB {
		store.add(name, edb[name], prog.BaseLookups[name], opts.Workers)
	}
	return newStratumRun(prog, prog.Strata[0], store, opts, &runCancel{})
}

// TestCoopDifferentialAtEveryLimit reruns the package's differential
// suites — engine ≡ internal/naive on every paper query shape, three
// strategies, 1 to 4 workers — with the threshold pinned to always
// parallel (the behaviour before the cooperative start), to 1 and 64
// (hand-off during or just after the seed) and to never widen. The
// suites themselves run at the default.
func TestCoopDifferentialAtEveryLimit(t *testing.T) {
	suites := []struct {
		name string
		fn   func(*testing.T)
	}{
		{"TC", TestDifferentialTC},
		{"CC", TestDifferentialCC},
		{"SSSP", TestDifferentialSSSP},
		{"APSP", TestDifferentialAPSP},
		{"DeliveryAttend", TestDifferentialDeliveryAndAttend},
		{"SGNegation", TestDifferentialSGWithNegation},
		{"PageRank", TestDifferentialPageRank},
		{"Chains", TestDifferentialRandomChains},
		{"Symbols", TestDifferentialSymbols},
		{"Steal", TestStealDifferentialSkewed},
	}
	for _, limit := range []int64{0, 1, 64, neverWiden} {
		t.Run(limitName(limit), func(t *testing.T) {
			SetCoopLimit(t, limit)
			for _, s := range suites {
				t.Run(s.name, s.fn)
			}
		})
	}
}

// TestCoopHandOffSweep moves the hand-off through every point of a
// small evaluation — mid-seed with some workers not yet seeded, right
// after the seed, after one stepped worker of a pass, after several
// passes — by sweeping the threshold one tuple at a time from the EDB
// size (below it the phase is skipped) to past the total derivation
// count, under each strategy and worker count. Every run must produce
// the relation the never-widening run produces.
func TestCoopHandOffSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A forest with fan-out: SG's base rule joins arc with itself, so
	// its seed alone derives several times the EDB size.
	var edges [][2]int64
	for i := int64(1); i <= 40; i++ {
		edges = append(edges, [2]int64{rng.Int63n(i) / 2, i})
	}
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	SetCoopLimit(t, neverWiden) // restores the default when the test ends
	for _, c := range []struct{ name, src, out string }{{"tc", tcSrc, "tc"}, {"sg", sgSrc, "sg"}} {
		prog := compileSrc(t, c.src, arcSchemas(), nil)
		coopLimit = neverWiden
		ref, err := Run(prog, edb, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRows(ref.Relations[c.out])
		total := ref.Stats.Strata[0].TuplesDerived
		if ref.Stats.WidenedStrata != 0 {
			t.Fatalf("%s: never-widen run widened", c.name)
		}

		var beforeIter, afterIter, finished int
		for limit := int64(len(edges)); limit <= total+2; limit++ {
			coopLimit = limit
			for _, workers := range []int{2, 4, 8} {
				strat := coord.Kind((int(limit) + workers) % 3)
				res, err := Run(prog, edb, Options{Workers: workers, Strategy: strat, BatchSize: 4})
				if err != nil {
					t.Fatalf("%s limit %d %s w%d: %v", c.name, limit, strat, workers, err)
				}
				if got := sortedRows(res.Relations[c.out]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s limit %d %s w%d: %d tuples, want %d", c.name, limit, strat, workers, len(got), len(want))
				}
				switch ss := res.Stats.Strata[0]; {
				case !ss.Widened:
					finished++
				case ss.WidenedAfter < limit:
					t.Fatalf("%s limit %d: widened after %d tuples", c.name, limit, ss.WidenedAfter)
				case ss.CoopIters == 0:
					beforeIter++
				default:
					afterIter++
				}
			}
		}
		// The sweep is only worth its time if it lands on each side.
		if beforeIter == 0 || afterIter == 0 || finished == 0 {
			t.Fatalf("%s: sweep covered seed hand-offs %d, later hand-offs %d, cooperative finishes %d",
				c.name, beforeIter, afterIter, finished)
		}
	}
}

// TestCoopCutsMidStep: a step of the cooperative phase stops by itself
// when the threshold is crossed inside it — a seed mid-stripe, leaving
// a cursor; a local iteration mid-delta, leaving a carry — so that one
// high-fan-out step cannot run a big stratum on one goroutine. Both
// must happen somewhere in the sweep, the hand-off must come within a
// few blocks' derivations of the threshold, and the widened workers
// must finish the seed and the carry exactly once.
func TestCoopCutsMidStep(t *testing.T) {
	edges := randGraph(rand.New(rand.NewSource(9)), 80, 400)
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	var seedCuts, carries int
	// SG's base rule joins arc with itself, so its seed crosses a
	// threshold that its 400-tuple scan is under; TC's crosses inside
	// the first passes.
	for _, src := range []string{tcSrc, sgSrc} {
		ref := newTestRun(t, src, arcSchemas(), edb, Options{Workers: 1})
		if !ref.cooperate(context.Background(), neverWiden) {
			t.Fatal("never-widening reference run widened")
		}
		want := ref.workers[0].replicas[0][0].size()
		for limit := int64(len(edges)); limit <= 6000; limit += 140 {
			// Small batches, so that rows waiting unflushed in
			// out-batches (which the threshold check cannot see) do not
			// blur the overshoot bound below.
			run := newTestRun(t, src, arcSchemas(), edb, Options{Workers: 4, Strategy: coord.Kind(limit % 3), BatchSize: 8})
			if run.cooperate(context.Background(), limit) {
				t.Fatalf("limit %d: finished cooperatively", limit)
			}
			for _, w := range run.workers {
				if w.seedRule < len(w.baseKernels) && w.seedDone > 0 {
					seedCuts++
				}
				if w.carry.rows != nil {
					carries++
				}
			}
			if over := run.derived.Load() - limit; over < 0 || over > 1000 {
				t.Fatalf("limit %d: hand-off after %d derived tuples", limit, run.derived.Load())
			}
			run.widen()
			run.fanOut()
			got := 0
			for _, w := range run.workers {
				if w.carry.rows != nil || w.seedRule != len(w.baseKernels) {
					t.Fatalf("limit %d: worker %d exited with a carry or an unfinished seed", limit, w.id)
				}
				got += w.replicas[0][0].size()
			}
			if got != want {
				t.Fatalf("limit %d: %d tuples, want %d", limit, got, want)
			}
		}
	}
	if seedCuts == 0 || carries == 0 {
		t.Fatalf("sweep cut %d seeds and %d deltas mid-step; want both", seedCuts, carries)
	}
}

// TestCoopRingFull fills two-slot rings while nobody else is running:
// the stepping goroutine must gather on the consumer's behalf instead
// of spinning on a ring only it can drain.
func TestCoopRingFull(t *testing.T) {
	SetCoopLimit(t, neverWiden)
	edges := randGraph(rand.New(rand.NewSource(3)), 60, 240)
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	want := refTC(edges)
	for _, workers := range []int{2, 4} {
		prog := compileSrc(t, tcSrc, arcSchemas(), nil)
		done := make(chan *Result, 1)
		go func() {
			res, err := Run(prog, edb, Options{Workers: workers, QueueCap: 2, BatchSize: 1})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res == nil {
				t.FailNow()
			}
			if got := len(res.Relations["tc"]); got != len(want) {
				t.Fatalf("w%d: tc has %d tuples, want %d", workers, got, len(want))
			}
			if res.Stats.WidenedStrata != 0 {
				t.Fatalf("w%d: never-widen run widened", workers)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("w%d: cooperative phase wedged on a full ring", workers)
		}
	}
}

// TestCoopWidenStartsCoordinationClean drives the phases by hand: after
// a cooperative phase that recorded arrivals and service times, widen
// must leave every worker's DWS trackers empty (so the first dwsGate
// decides from nothing and does not wait), the SSP clock at zero, and
// every worker detector-active, so that TryFinish cannot declare the
// fixpoint before each worker has entered its loop and parked itself.
func TestCoopWidenStartsCoordinationClean(t *testing.T) {
	edges := randGraph(rand.New(rand.NewSource(5)), 80, 400)
	edb := map[string][]storage.Tuple{"arc": pairs(edges)}
	run := newTestRun(t, tcSrc, arcSchemas(), edb, Options{Workers: 4, Strategy: coord.DWS, BatchSize: 8})
	if run.cooperate(context.Background(), 5000) {
		t.Fatal("TC over 400 edges finished under 5000 derived tuples")
	}
	recorded := false
	for _, w := range run.workers {
		lambda, _ := queueing.Combine(w.arrivals)
		recorded = recorded || (lambda > 0 && w.service.Mu() > 0)
	}
	if !recorded {
		t.Fatal("cooperative phase recorded no arrival or service statistics; the test proves nothing")
	}

	run.widen()
	for _, w := range run.workers {
		if lambda, sigma := queueing.Combine(w.arrivals); lambda != 0 || sigma != 0 {
			t.Fatalf("worker %d arrivals after widen: λ=%v σ²=%v", w.id, lambda, sigma)
		}
		if w.service.Mu() != 0 {
			t.Fatalf("worker %d service rate after widen: %v", w.id, w.service.Mu())
		}
		before := w.waitTime
		w.dwsGate(1)
		if w.waitTime != before {
			t.Fatalf("worker %d: first gate after widen waited %s", w.id, w.waitTime-before)
		}
		if it := run.clock.Iter(w.id); it != 0 {
			t.Fatalf("worker %d: SSP clock at %d after widen", w.id, it)
		}
		if !run.clock.MayProceed(w.id) {
			t.Fatalf("worker %d held by the SSP bound at widen", w.id)
		}
	}
	if run.det.TryFinish() {
		t.Fatal("detector declared the fixpoint at widen")
	}
	// Even with every worker but the last parked and every frame
	// consumed, the one that has not entered its loop holds the
	// fixpoint open.
	for _, w := range run.workers[:run.n-1] {
		w.gather()
		run.det.SetInactive(w.id)
	}
	run.workers[run.n-1].gather()
	if run.det.TryFinish() {
		t.Fatal("detector declared the fixpoint before the last worker entered its loop")
	}
	for _, w := range run.workers[:run.n-1] {
		run.det.SetActive(w.id)
	}

	run.fanOut()
	var got int
	for _, w := range run.workers {
		got += w.replicas[0][0].size()
	}
	if want := len(refTC(edges)); got != want {
		t.Fatalf("tc after hand-off has %d tuples, want %d", got, want)
	}
}

// countingCtx is canceled from the nth Err call on: the cooperative
// loop reads Err once per pass, so it lands a cancellation on an exact
// pass without timing.
type countingCtx struct {
	context.Context
	calls, after int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCoopCancel covers cancellation on both sides of the hand-off and
// exactly on it: inside the cooperative phase at a chosen pass (where
// no goroutine exists to notice), by deadline while never widening,
// and between cooperate's return and the first worker goroutine.
func TestCoopCancel(t *testing.T) {
	prog := compileSrc(t, divergingSrc, arcSchemas(), nil)
	wantCanceled := func(t *testing.T, res *Result, err error, cause error) {
		t.Helper()
		var ce *CanceledError
		if !errors.As(err, &ce) || !errors.Is(err, cause) {
			t.Fatalf("err = %v, want *CanceledError wrapping %v", err, cause)
		}
		if res != nil {
			t.Fatal("canceled run returned a result")
		}
	}

	t.Run("at-pass", func(t *testing.T) {
		SetCoopLimit(t, neverWiden)
		for _, workers := range []int{1, 2, 8} {
			base := runtime.NumGoroutine()
			// Call 1 is RunContext's entry check, call 2 the stratum
			// boundary; passes follow.
			ctx := &countingCtx{Context: context.Background(), after: 12}
			res, err := RunContext(ctx, prog, cycleEDB(64), Options{Workers: workers})
			wantCanceled(t, res, err, context.Canceled)
			if n := waitGoroutines(base, time.Second); n > base {
				t.Fatalf("w%d: goroutines leaked: %d before, %d after", workers, base, n)
			}
		}
	})

	t.Run("deadline-never-widening", func(t *testing.T) {
		SetCoopLimit(t, neverWiden)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		res, err := RunContext(ctx, prog, cycleEDB(64), Options{Workers: 4})
		wantCanceled(t, res, err, context.DeadlineExceeded)
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("30ms deadline took %s to land", d)
		}
		if n := waitGoroutines(base, time.Second); n > base {
			t.Fatalf("goroutines leaked: %d before, %d after", base, n)
		}
	})

	t.Run("at-hand-off", func(t *testing.T) {
		for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
			base := runtime.NumGoroutine()
			run := newTestRun(t, divergingSrc, arcSchemas(), cycleEDB(64), Options{Workers: 4, Strategy: strat})
			if run.cooperate(context.Background(), 1000) {
				t.Fatal("diverging program reached a fixpoint")
			}
			run.rc.trigger()
			done := make(chan struct{})
			go func() {
				run.widen()
				run.fanOut()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: workers started under a canceled run did not exit", strat)
			}
			if n := waitGoroutines(base, time.Second); n > base {
				t.Fatalf("%s: goroutines leaked: %d before, %d after", strat, base, n)
			}
		}
	})
}

// TestCoopBudgets lands MaxTuples and MaxLocalIters inside the
// cooperative phase, after the hand-off, and on the step that triggers
// it: each must return the partial result with a *BudgetError and
// leave no goroutine behind.
func TestCoopBudgets(t *testing.T) {
	prog := compileSrc(t, divergingSrc, arcSchemas(), nil)
	cases := []struct {
		name  string
		limit int64
		opts  Options
	}{
		{"tuples-inside", neverWiden, Options{MaxTuples: 3000}},
		{"tuples-at-hand-off", 3000, Options{MaxTuples: 3000}},
		{"tuples-after", 1000, Options{MaxTuples: 3000}},
		{"iters-inside", neverWiden, Options{MaxLocalIters: 20}},
		// 64 tuples a round over four workers: the 20th local
		// iteration and the 1280th derived tuple arrive together.
		{"iters-at-hand-off", 1280, Options{MaxLocalIters: 20}},
		{"iters-after", 256, Options{MaxLocalIters: 20}},
	}
	for _, c := range cases {
		for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
			t.Run(fmt.Sprintf("%s/%s", c.name, strat), func(t *testing.T) {
				SetCoopLimit(t, c.limit)
				base := runtime.NumGoroutine()
				opts := c.opts
				opts.Workers, opts.Strategy = 4, strat
				res, err := RunContext(context.Background(), prog, cycleEDB(64), opts)
				var be *BudgetError
				if !errors.As(err, &be) || !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("err = %v, want *BudgetError", err)
				}
				if res == nil || len(res.Relations["p"]) == 0 || !res.Stats.Strata[0].Capped {
					t.Fatalf("budget stop must return the capped partial result, got %+v", res)
				}
				if widened := res.Stats.WidenedStrata == 1; widened != (c.limit != neverWiden) {
					t.Fatalf("widened = %v at limit %d", widened, c.limit)
				}
				if n := waitGoroutines(base, time.Second); n > base {
					t.Fatalf("goroutines leaked: %d before, %d after", base, n)
				}
			})
		}
	}
}

// TestPreCanceledContextAlwaysFails is the regression test for runs
// that finish before the cancellation watcher is scheduled: a context
// that is already done must fail a one-iteration program at every
// worker count, every time.
func TestPreCanceledContextAlwaysFails(t *testing.T) {
	prog := compileSrc(t, `src(X) :- arc(X, _).`, arcSchemas(), nil)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, workers := range []int{1, 2, 8} {
		for i := 0; i < 200; i++ {
			for ctx, cause := range map[context.Context]error{canceled: context.Canceled, expired: context.DeadlineExceeded} {
				res, err := RunContext(ctx, prog, cycleEDB(4), Options{Workers: workers})
				var ce *CanceledError
				if !errors.As(err, &ce) || !errors.Is(err, cause) || res != nil {
					t.Fatalf("w%d run %d: res=%v err=%v, want *CanceledError wrapping %v", workers, i, res, err, cause)
				}
			}
		}
	}
}

// tinyRun is a 2-worker TC over a 16-cycle: 256 result tuples, a few
// hundred derivations, the shape of a bound point query's strata.
func tinyRun(t testing.TB) (*physical.Program, map[string][]storage.Tuple, Options) {
	return compileSrc(t, tcSrc, arcSchemas(), nil), cycleEDB(16), Options{Workers: 2, Strategy: coord.DWS}
}

// TestTinyRunStartsNoGoroutines: a run under the threshold is stepped
// to its fixpoint by its caller. The stats say no stratum widened, the
// strategy never engaged (no gate wait, no steal probe), and no
// goroutine outlives the call.
func TestTinyRunStartsNoGoroutines(t *testing.T) {
	prog, edb, opts := tinyRun(t)
	for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
		opts.Strategy = strat
		base := runtime.NumGoroutine()
		res, err := RunContext(context.Background(), prog, edb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%s: %d goroutines before the run, %d right after", strat, base, n)
		}
		st := res.Stats
		if st.WidenedStrata != 0 || st.CoopStrata != len(st.Strata) {
			t.Fatalf("%s: cooperative=%d widened=%d of %d strata", strat, st.CoopStrata, st.WidenedStrata, len(st.Strata))
		}
		ss := st.Strata[0]
		if ss.Widened || ss.WidenedAfter != 0 || ss.GlobalBarriers != 0 || ss.Steal != (StealStats{}) {
			t.Fatalf("%s: stratum engaged its strategy: %+v", strat, ss)
		}
		if ss.CoopIters == 0 || ss.CoopIters != st.TotalIters() || st.CoopIters != ss.CoopIters || ss.CoopDuration <= 0 {
			t.Fatalf("%s: CoopIters=%d (run %d) of %d iterations, CoopDuration=%s",
				strat, ss.CoopIters, st.CoopIters, st.TotalIters(), ss.CoopDuration)
		}
		for i, w := range ss.WaitTime {
			if w != 0 {
				t.Fatalf("%s: worker %d waited %s in a cooperative stratum", strat, i, w)
			}
		}
		if len(res.Relations["tc"]) != 256 {
			t.Fatalf("%s: tc of a 16-cycle = %d tuples", strat, len(res.Relations["tc"]))
		}
	}
}

// TestTinyRunAllocations pins what a tiny 2-worker run allocates: 109
// objects and 25 KiB since workers and their scratch are recycled
// (216 and 68 KiB before, 267 and 299 KiB with full-size rings on every
// edge and a deque plus morsel arena per worker). The byte bound is the
// one with teeth: one 4096-slot data ring (32 KiB), one morsel arena
// (64 KiB) or a self-pending arena grown from nothing breaks it.
func TestTinyRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled workers at random under the race detector")
	}
	prog, edb, opts := tinyRun(t)
	run := func() {
		if _, err := Run(prog, edb, opts); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > 120 {
		t.Errorf("tiny run makes %.0f allocations, want at most 120", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 28<<10 {
		t.Errorf("tiny run allocates %d bytes, want at most %d", perRun, 28<<10)
	}
}
