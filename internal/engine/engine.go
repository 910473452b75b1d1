// Package engine executes compiled physical programs with the paper's
// parallel semi-naive evaluation (Algorithms 1 and 2): hash-partitioned
// worker goroutines exchange delta tuples through SPSC ring buffers,
// coordinated by the Global barrier scheme, the SSP bounded-staleness
// scheme, or the paper's DWS dynamic weight-based strategy; aggregates
// in recursion merge through access-ordered B+-trees with partial
// aggregation in Distribute and an existence cache in front of the
// index.
package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/physical"
	"repro/internal/spsc"
	"repro/internal/storage"
)

// frame is one fixed-size batch of wire-format tuples exchanged between
// workers. Tuple words are stored flat (row i occupies
// words[i*width:(i+1)*width]) with the wire hash of every row alongside
// — the full-tuple hash for set semantics, the group-key hash for
// aggregates — so the receiver merges without re-hashing. Frames are
// recycled producer-locally: a consumer returns each drained frame to
// the worker that sized it through a per-edge SPSC recycle ring, so the
// steady-state exchange path allocates nothing and no shared pool mutex
// or GC-emptied sync.Pool sits on the hot path. Between runs the frames
// stay on their producer's free list, which travels with the worker
// through the pool of run scratch (scratch.go).
type frame struct {
	pred   int32
	path   int32
	count  int32
	width  int32
	sentAt int64
	hashes []uint64
	words  []storage.Value
}

// row returns the i-th wire tuple as a view into the frame.
func (f *frame) row(i int) storage.Tuple {
	off := i * int(f.width)
	return storage.Tuple(f.words[off : off+int(f.width) : off+int(f.width)])
}

// runCancel is the per-run cancellation token shared by every stratum
// of one RunContext call. Workers poll the flag at safe points — loop
// tops, park spins, gate waits, per-block budget rechecks, full-ring
// flush retries — so a cancel lands within one backoff tick (≤50µs of
// sleep) plus at most one delta block of evaluation. Global-strategy
// workers blocked in a barrier cannot poll, so trigger also cancels
// every barrier registered so far, waking them.
type runCancel struct {
	flag atomic.Bool
	mu   sync.Mutex
	bars []*coord.Barrier
}

func (rc *runCancel) canceled() bool { return rc.flag.Load() }

// trigger flips the flag and releases every registered barrier.
func (rc *runCancel) trigger() {
	rc.flag.Store(true)
	rc.mu.Lock()
	bars := rc.bars
	rc.mu.Unlock()
	for _, b := range bars {
		b.Cancel()
	}
}

// expired reports whether the run is canceled, reading ctx directly as
// well as the flag: the watcher goroutine that sets the flag may not
// have run yet. A done context trips the flag, so workers polling it
// stop too.
func (rc *runCancel) expired(ctx context.Context) bool {
	if !rc.canceled() && ctx.Err() != nil {
		rc.trigger()
	}
	return rc.canceled()
}

// register adds a stratum's barrier to the cancel set; if the run was
// already canceled the barrier is canceled on the spot (trigger may
// have run before this stratum started).
func (rc *runCancel) register(b *coord.Barrier) {
	rc.mu.Lock()
	rc.bars = append(rc.bars, b)
	canceled := rc.flag.Load()
	rc.mu.Unlock()
	if canceled {
		b.Cancel()
	}
}

// Run evaluates a compiled program against the given EDB relations.
func Run(prog *physical.Program, edb map[string][]storage.Tuple, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, edb, opts)
}

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, every worker aborts at its next safe point — even
// mid-fixpoint inside a diverging recursion — and the call returns a
// *CanceledError wrapping ctx's error (no result). A budget truncation
// (MaxTuples / MaxLocalIters) instead returns the partial Result
// together with a *BudgetError, so callers can distinguish "you told
// me to stop" from "the program outran its budget" and still inspect
// what was derived.
func RunContext(ctx context.Context, prog *physical.Program, edb map[string][]storage.Tuple, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// The watcher goroutine below may not have been scheduled by the
	// time a short run finishes, so a context that is already done is
	// read synchronously here and at every stratum boundary.
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Err: err}
	}
	setupStart := time.Now()

	rc := &runCancel{}
	stop := context.AfterFunc(ctx, rc.trigger)
	defer stop()

	// Per-query setup: register base relations and index them. A
	// relation covered by a shared PreparedBase attaches its memoized
	// index set (built at most once across all runs); everything else
	// builds cold, sharded over the run's worker budget.
	store := newRelStore(prog.Plan.Analysis.Schemas)
	if len(opts.Probers) > 0 {
		// Virtual relations: validate the narrow fully-bound-negation
		// contract up front (a prober cannot serve scans or joins),
		// then register the oracles. Probed names skip tuple/index
		// registration entirely below.
		if err := validateProbers(prog, opts.Probers); err != nil {
			return nil, err
		}
		for name, p := range opts.Probers {
			store.attachProber(name, p)
		}
	}
	register := func(name string, tuples []storage.Tuple) {
		if store.prober(name) != nil {
			return
		}
		lookups := prog.BaseLookups[name]
		if opts.Base != nil && opts.Base.Has(name) {
			store.attach(name, opts.Base.Tuples(name), opts.Base.Indexes(name, lookups, opts.Workers))
			return
		}
		store.add(name, tuples, lookups, opts.Workers)
	}
	for name := range prog.Plan.Analysis.EDB {
		register(name, edb[name])
	}
	// EDB relations loaded but never referenced still need storing for
	// completeness of scans.
	for name, tuples := range edb {
		if _, ok := store.tuples[name]; !ok {
			register(name, tuples)
		}
	}

	start := time.Now()
	res := &Result{
		Relations: make(map[string][]storage.Tuple),
		Stats: Stats{
			Workers:       opts.Workers,
			Strategy:      opts.Strategy,
			SetupDuration: start.Sub(setupStart),
		},
	}
	var budgetErr *BudgetError
	for si, st := range prog.Strata {
		if rc.expired(ctx) {
			return nil, &CanceledError{Stratum: si, Err: ctx.Err()}
		}
		ss, err := runStratum(ctx, si, prog, st, store, opts, rc)
		if err != nil {
			return nil, err
		}
		res.Stats.Strata = append(res.Stats.Strata, *ss)
		res.Stats.Probe.Add(ss.Probe)
		res.Stats.Steal.Add(ss.Steal)
		res.Stats.CoopIters += ss.CoopIters
		res.Stats.CoopDuration += ss.CoopDuration
		if ss.Widened {
			res.Stats.WidenedStrata++
		} else {
			res.Stats.CoopStrata++
		}
		if ss.Capped && budgetErr == nil {
			budgetErr = &BudgetError{Stratum: si, Preds: ss.Preds, Tuples: ss.TuplesDerived}
		}
	}
	for _, st := range prog.Strata {
		for _, p := range st.Preds {
			res.Relations[p.Plan.Name] = store.scan(p.Plan.Name)
		}
	}
	res.Stats.Duration = time.Since(start)
	if budgetErr != nil {
		return res, budgetErr
	}
	return res, nil
}

// stratumRun is the shared state of one stratum's parallel evaluation.
type stratumRun struct {
	prog  *physical.Program
	st    *physical.Stratum
	store *relStore
	opts  Options
	n     int

	// queues[consumer][producer] is the SPSC ring M_consumer^producer.
	queues [][]*spsc.Queue[*frame]
	// inboxes[consumer] is the wakeup bitmap over that consumer's
	// rings: bit j set means ring M_consumer^j may hold frames, so
	// gather visits only flagged rings and park spins on one word.
	inboxes []*coord.Inbox
	// recycle[owner][peer] is the SPSC ring through which consumer
	// `peer` hands drained frames back to the worker that sized them.
	recycle [][]*spsc.Queue[*frame]
	det     *coord.Detector
	// bar and clock coordinate worker goroutines only, so widen makes
	// them: the cooperative phase runs without either.
	bar   *coord.Barrier
	clock *coord.Clock
	// clk is the engine-wide coarse clock: refreshed at iteration
	// boundaries and backoff sleeps, read everywhere a timestamp used
	// to cost a time.Now() syscall (frame sentAt stamps, gate
	// deadlines, wait accounting).
	clk *coord.CoarseClock

	// widths[pred] is the wire-tuple width of the predicate (full arity
	// for sets; group+value / group+contributor layouts for aggregates).
	widths []int

	// variants[pred][path] lists the delta variants driven by that
	// replica's deltas.
	variants [][][]*physical.Rule
	// consume[pred][path] marks replicas whose deltas are consumed.
	consume [][]bool
	// types caches column types per relation for comparisons.
	types map[string][]storage.Type

	// coopUntil is nonzero while the calling goroutine steps the
	// workers (see coop.go): the derived-tuple count at which it stops.
	// widen zeroes it before the worker goroutines start.
	coopUntil int64

	// rc is the run-wide cancellation token; workers poll it at every
	// safe point (see runCancel).
	rc *runCancel

	// stealOn gates the morsel steal plane (>1 worker, not StealOff,
	// and at least one stealable delta stream — see steal.go).
	stealOn bool
	// stealable[pred][path] marks delta streams whose variants probe
	// only the immutable shared store and may therefore be evaluated
	// by any worker.
	stealable [][]bool
	// steal[i] is worker i's padded load-hint + outstanding-morsel
	// shard.
	steal []stealShard

	// derived counts every derivation that left a kernel — remote
	// sends plus self-bound tuples — so MaxTuples bounds total
	// derivation volume even at one worker, where nothing crosses a
	// ring (the detector only sees exchange traffic).
	derived atomic.Int64

	workers []*worker
	stats   StratumStats
	errMu   sync.Mutex
	err     error
}

// wireWidth returns the fixed wire-tuple width of a predicate.
func wireWidth(p *physical.Pred) int {
	pp := p.Plan
	switch pp.Agg {
	case storage.AggNone:
		return pp.Schema.Arity()
	case storage.AggMin, storage.AggMax, storage.AggCount:
		return pp.GroupLen + 1
	default: // AggSum: group + value + contributor
		return pp.GroupLen + 2
	}
}

func (run *stratumRun) fail(err error) {
	run.errMu.Lock()
	if run.err == nil {
		run.err = err
	}
	run.errMu.Unlock()
}

// newStratumRun builds a stratum's shared state and its n workers,
// hash-partitioned as they stay for the whole evaluation. Nothing here
// is specific to running the workers on goroutines: widen adds that.
func newStratumRun(prog *physical.Program, st *physical.Stratum, store *relStore, opts Options, rc *runCancel) *stratumRun {
	n := opts.Workers
	run := &stratumRun{
		prog:  prog,
		st:    st,
		store: store,
		opts:  opts,
		n:     n,
		det:   coord.NewDetector(n),
		clk:   coord.NewCoarseClock(),
		types: make(map[string][]storage.Type),
		rc:    rc,
	}

	// The ring tables start empty: an edge's rings are allocated by its
	// producer at the first push (worker.openEdge).
	run.queues = make([][]*spsc.Queue[*frame], n)
	run.inboxes = make([]*coord.Inbox, n)
	run.recycle = make([][]*spsc.Queue[*frame], n)
	for i := range run.queues {
		run.queues[i] = make([]*spsc.Queue[*frame], n)
		run.inboxes[i] = coord.NewInbox(n)
		run.recycle[i] = make([]*spsc.Queue[*frame], n)
	}
	run.widths = make([]int, len(st.Preds))
	for i, p := range st.Preds {
		run.widths[i] = wireWidth(p)
	}

	run.variants = make([][][]*physical.Rule, len(st.Preds))
	run.consume = make([][]bool, len(st.Preds))
	for i, p := range st.Preds {
		run.variants[i] = make([][]*physical.Rule, len(p.Plan.Paths))
		run.consume[i] = make([]bool, len(p.Plan.Paths))
	}
	for _, r := range st.RecRules {
		run.variants[r.OuterPredIdx][r.OuterPathIdx] = append(run.variants[r.OuterPredIdx][r.OuterPathIdx], r)
		run.consume[r.OuterPredIdx][r.OuterPathIdx] = true
	}

	typesOf := func(name string) []storage.Type {
		s := prog.Plan.Analysis.Schemas[name]
		ts := make([]storage.Type, s.Arity())
		for i := range ts {
			ts[i] = s.ColType(i)
		}
		return ts
	}
	collect := func(rules []*physical.Rule) {
		for _, r := range rules {
			if r.Outer != nil {
				if _, ok := run.types[r.Outer.Pred]; !ok {
					run.types[r.Outer.Pred] = typesOf(r.Outer.Pred)
				}
			}
			for _, op := range r.Ops {
				if op.Access != nil {
					if _, ok := run.types[op.Access.Pred]; !ok {
						run.types[op.Access.Pred] = typesOf(op.Access.Pred)
					}
				}
			}
		}
	}
	collect(st.BaseRules)
	collect(st.RecRules)

	run.workers = make([]*worker, n)
	for i := 0; i < n; i++ {
		run.workers[i] = newWorker(run, i)
	}
	run.stats = StratumStats{
		Preds:      st.Logical.Stratum.Preds,
		Recursive:  st.Recursive,
		LocalIters: make([]int64, n),
		WaitTime:   make([]time.Duration, n),
		BusyTime:   make([]time.Duration, n),
	}
	return run
}

func runStratum(ctx context.Context, si int, prog *physical.Program, st *physical.Stratum, store *relStore, opts Options, rc *runCancel) (*StratumStats, error) {
	begin := time.Now()
	run := newStratumRun(prog, st, store, opts, rc)
	// Deferred, so that every exit hands the workers back: by then the
	// cooperative phase has returned, fanOut has joined every worker
	// goroutine, and the replicas are materialized.
	defer run.release()
	if !run.cooperate(ctx, coopLimit) {
		run.widen()
		run.fanOut()
	}
	if run.err != nil {
		return nil, run.err
	}
	if rc.expired(ctx) {
		// Workers bailed at safe points; their replicas may hold an
		// arbitrary prefix of the fixpoint. Nothing is materialized —
		// the whole run reports the context's error.
		return nil, &CanceledError{Stratum: si, Err: ctx.Err()}
	}

	// Materialize primary replicas into the global store, each worker's
	// views appended straight into one presized slice.
	run.stats.ResultTuples = make(map[string]int)
	for pi, p := range st.Preds {
		owners := run.workers
		if p.Plan.Broadcast {
			owners = owners[:1]
		}
		n := 0
		for _, w := range owners {
			n += w.replicas[pi][0].size()
		}
		tuples := make([]storage.Tuple, 0, n)
		for _, w := range owners {
			tuples = w.replicas[pi][0].appendTo(tuples)
		}
		store.add(p.Plan.Name, tuples, prog.BaseLookups[p.Plan.Name], opts.Workers)
		run.stats.ResultTuples[p.Plan.Name] = len(tuples)
	}
	for i, w := range run.workers {
		run.stats.LocalIters[i] = w.localIters
		run.stats.WaitTime[i] = w.waitTime
		run.stats.BusyTime[i] = w.busyTime
		run.stats.TuplesMerged += w.merged
		run.stats.Probe.Add(w.pc)
		run.stats.Steal.Add(w.steal)
		if w.droppedDeltas {
			run.stats.Capped = true
		}
	}
	run.stats.TuplesSent = run.det.Produced()
	run.stats.TuplesDerived = run.derived.Load()
	run.stats.Duration = time.Since(begin)
	return &run.stats, nil
}
