package engine

import (
	"time"

	"repro/internal/coord"
	"repro/internal/deque"
	"repro/internal/queueing"
	"repro/internal/spsc"
	"repro/internal/storage"
)

// worker is one parallel evaluation thread (Algorithm 2). It owns one
// replica per (stratum predicate, access path), drains its SPSC inbox
// rings, evaluates delta variants, and distributes derivations.
type worker struct {
	id  int
	run *stratumRun

	// inbox is this worker's wakeup bitmap (run.inboxes[id]).
	inbox *coord.Inbox

	// scratch holds the buffers that outlive the run (scratch.go): the
	// self-pending arena, the frame free list, recycled out-batches and
	// delta buffers.
	scratch

	// replicas[pred][path] is this worker's partition of the relation.
	replicas [][]*replica

	// outBufs[dest][pred][path] batches outgoing tuples with partial
	// aggregation (the Distribute operator).
	outBufs [][][]*outBatch

	arrivals []*queueing.ArrivalTracker
	service  queueing.ServiceTracker

	// baseKernels[i] executes run.st.BaseRules[i]; recKernels[pred][path]
	// holds one kernel per delta variant in run.variants[pred][path].
	// Kernels own their slot scratch and per-frame cursors, so the
	// per-tuple path touches no maps and allocates nothing.
	baseKernels []*kernel
	recKernels  [][][]*kernel

	// wireBufs[pred] is the reusable wire-tuple scratch emit writes
	// derivations into before they are hashed and routed.
	wireBufs []storage.Tuple

	// flushPending queues out-batches that crossed flushCap rows while a
	// kernel was executing; they are flushed at the next cursor-safe
	// point (between kernel executions). Capping batch size keeps each
	// batch's dedup table cache-resident and ships derivations to their
	// consumers before the local iteration ends.
	flushPending []flushKey
	flushCap     int

	// pc is this worker's probe-counter bag: every kernel frame holds a
	// pointer to it, and runStratum folds it into StratumStats.Probe.
	// Plain int64s — single writer, read only after the worker exits.
	pc storage.ProbeCounters
	// probeGroup is the staged pipeline's group size G (Options.
	// ProbeGroup, already clamped); stages is the pipeline's fixed
	// per-worker scratch.
	probeGroup int
	stages     [maxProbeGroup]probeStage

	// deque and morselBuf are this worker's side of the steal plane
	// (steal.go): published delta blocks live in the fixed morselBuf
	// arena and circulate by index through the Chase–Lev deque.
	// morselN is the arena high-water mark, reset once finishMorsels
	// has joined on every published morsel. steal counts this worker's
	// scheduler activity (single writer; folded after the worker
	// exits). initSteal allocates the deque and arena when the workers
	// widen onto goroutines; all nil/zero when run.stealOn is false.
	deque     *deque.Deque
	morselBuf []morsel
	morselN   int
	steal     StealStats
	helpFn    func() bool

	// seedRule and seedDone are runBaseRules' cursor — the base rule it
	// is in and how many tuples of this worker's stripe of that rule's
	// outer scan it has evaluated — and carry is the unevaluated tail
	// of a delta. Both exist for the cooperative phase (coop.go), which
	// stops a seed or a local iteration the moment the stratum has
	// proved big; the worker's own goroutine then resumes from the
	// cursor and evaluates the carry in its first iteration.
	seedRule, seedDone int
	carry              deltaCarry

	localIters    int64
	waitTime      time.Duration
	busyTime      time.Duration
	merged        int64
	droppedDeltas bool
	// freshFrames counts the frames getFrame had to allocate because
	// neither the free list nor a recycle ring had one.
	freshFrames int
}

// deltaCarry is the tail of a taken delta that has not been evaluated.
// The rows stay valid until the replica's next takeDelta, so the
// iteration that evaluates a carry leaves that replica's newer delta
// pending.
type deltaCarry struct {
	pred, path int
	rows       []storage.Tuple
}

// selfRef is one buffered self-bound derivation: an offset into the
// worker's selfWords arena plus the tuple's wire hash.
type selfRef struct {
	pred, path int32
	off        int32
	hash       uint64
}

// flushKey names one (destination, predicate, path) out-batch.
type flushKey struct {
	dest, pred, path int32
}

// flushPendingBatches sends every batch that crossed the row cap. Only
// legal between kernel executions: flushBatch may gather (and therefore
// merge into the replica trees) when a ring is full.
func (w *worker) flushPendingBatches() {
	for _, k := range w.flushPending {
		b := w.outBufs[k.dest][k.pred][k.path]
		if b.count > 0 {
			w.flushBatch(int(k.dest), int(k.pred), int(k.path), b)
		}
	}
	w.flushPending = w.flushPending[:0]
}

// drainSelf merges the buffered self-bound derivations and resets the
// flat buffers for reuse (mergeWire copies everything it retains).
func (w *worker) drainSelf() {
	w.run.derived.Add(int64(len(w.selfRefs)))
	refs := w.selfRefs
	for i, m := range refs {
		// Request the dedup-table slot line of a tuple a fixed distance
		// ahead (see mergeAhead): the self-pending refs carry their wire
		// hashes, so the probe's first random load overlaps the current
		// tuple's merge.
		if j := i + mergeAhead; j < len(refs) {
			n := &refs[j]
			if set := w.replicas[n.pred][n.path].set; set != nil {
				set.PrefetchSlot(n.hash)
			}
		}
		width := w.run.widths[m.pred]
		wire := storage.Tuple(w.selfWords[m.off : int(m.off)+width])
		if w.replicas[m.pred][m.path].mergeWire(m.hash, wire) {
			w.merged++
		}
	}
	w.selfRefs = w.selfRefs[:0]
	w.selfWords = w.selfWords[:0]
}

// newWorker takes a worker from the pool — with whatever scratch an
// earlier run left in it — and builds its run state.
func newWorker(run *stratumRun, id int) *worker {
	w := workerPool.Get().(*worker)
	// Four frames' worth of rows per out-batch keeps the batch's dedup
	// slot table small enough to stay cache-resident while preserving
	// most of the within-iteration dedup scope.
	*w = worker{id: id, run: run, flushCap: 4 * run.opts.BatchSize, inbox: run.inboxes[id],
		probeGroup: run.opts.ProbeGroup, scratch: w.scratch}
	w.wireBufs = make([]storage.Tuple, len(run.st.Preds))
	for pi := range run.st.Preds {
		w.wireBufs[pi] = make(storage.Tuple, run.widths[pi])
	}
	w.replicas = make([][]*replica, len(run.st.Preds))
	for pi, p := range run.st.Preds {
		w.replicas[pi] = make([]*replica, len(p.Plan.Paths))
		for path := range p.Plan.Paths {
			rep := newReplica(p, path, &run.opts)
			if rep.consume = run.consume[pi][path]; rep.consume {
				rep.adoptDelta(pop(&w.deltas))
			}
			w.replicas[pi][path] = rep
		}
	}
	w.outBufs = make([][][]*outBatch, run.n)
	for d := range w.outBufs {
		if d == id {
			continue
		}
		w.outBufs[d] = make([][]*outBatch, len(run.st.Preds))
		for pi, p := range run.st.Preds {
			w.outBufs[d][pi] = make([]*outBatch, len(p.Plan.Paths))
			for path := range p.Plan.Paths {
				w.outBufs[d][pi][path] = newOutBatch(p, !run.opts.NoPartialAgg, pop(&w.batches))
			}
		}
	}
	arrivals := make([]queueing.ArrivalTracker, run.n)
	w.arrivals = make([]*queueing.ArrivalTracker, run.n)
	for j := range w.arrivals {
		w.arrivals[j] = &arrivals[j]
	}
	// Compile every rule variant into this worker's cursor kernels
	// (replicas must exist first: join frames resolve replica indexes
	// and trees at construction).
	w.baseKernels = make([]*kernel, len(run.st.BaseRules))
	for i, r := range run.st.BaseRules {
		w.baseKernels[i] = w.newKernel(r)
	}
	w.recKernels = make([][][]*kernel, len(run.variants))
	for pi, paths := range run.variants {
		w.recKernels[pi] = make([][]*kernel, len(paths))
		for path, rules := range paths {
			ks := make([]*kernel, len(rules))
			for vi, r := range rules {
				ks[vi] = w.newKernel(r)
			}
			w.recKernels[pi][path] = ks
		}
	}
	return w
}

// coopSpent reports, during the cooperative phase only, that the
// stratum has derived its threshold and this worker should stop where
// it is so the workers can widen onto goroutines. The self-bound
// derivations still buffered count too (run.derived sees them only at
// the next drain), so a high-fan-out seed or delta is cut within one
// block's derivations plus one unflushed out-batch per destination of
// the threshold, rather than whenever it finishes.
func (w *worker) coopSpent() bool {
	until := w.run.coopUntil
	return until > 0 && w.run.derived.Load()+int64(len(w.selfRefs)) >= until
}

// canceled reports whether the run's context was canceled. One shared
// atomic load of a read-mostly word — cheap enough for per-tuple seed
// loops and per-block delta rechecks.
func (w *worker) canceled() bool { return w.run.rc.canceled() }

// pendingDelta counts tuples waiting in consumed delta queues.
func (w *worker) pendingDelta() int {
	total := len(w.carry.rows)
	for _, paths := range w.replicas {
		for _, rep := range paths {
			total += len(rep.delta)
		}
	}
	return total
}

// gather drains the flagged inbox rings and merges the tuples (the
// Gather operator); it returns the number of tuples consumed. The inbox
// bitmap is claimed before the rings are scanned — the producer-side
// mirror (push, then flag) makes that order lossless — so an empty
// gather costs one word load instead of touching every ring's index
// lines. Drained frames are recycled to the worker that sized them.
func (w *worker) gather() int {
	total := 0
	w.inbox.Drain(func(j int) {
		q := w.run.queues[w.id][j]
		q.Drain(func(f *frame) {
			n := int(f.count)
			w.arrivals[j].Record(n, f.sentAt)
			rep := w.replicas[f.pred][f.path]
			w.merged += int64(rep.mergeFrame(f))
			w.run.det.Consume(w.id, n)
			total += n
			w.recycleFrame(j, f)
		})
	})
	return total
}

// openEdge allocates the rings of the edge from this worker to dest —
// the data ring and the recycle ring its frames come back through — at
// the first push, so a stratum pays for the edges it uses and an idle
// one for none. Only the producer writes the two table slots, before
// the push and therefore before the inbox flag that makes the consumer
// look at them (push, then flag; swap, then drain): the consumer reads
// both slots only after seeing that flag.
//
// An edge opened during the cooperative phase gets coopQueueCap slots:
// a stratum that stays under the threshold never has more in flight,
// and widen regrows what a bigger one opened (growRings).
func (w *worker) openEdge(dest int) *spsc.Queue[*frame] {
	capacity := w.run.ringCap()
	q := spsc.New[*frame](capacity)
	w.run.recycle[w.id][dest] = spsc.New[*frame](capacity)
	w.run.queues[dest][w.id] = q
	return q
}

// recycleFrame hands a drained frame back to the producer that owns it
// through the per-edge recycle ring. The caller must not touch the
// frame (or views into it) afterwards. A full ring — the owner is far
// behind on reclaiming — drops the frame for the GC; circulation per
// edge is bounded by the ring capacities, so this cannot leak.
func (w *worker) recycleFrame(owner int, f *frame) {
	f.count = 0
	w.run.recycle[owner][w.id].TryPush(f)
}

// getFrame returns a frame sized for n rows of the given width, reusing
// the producer-local free list and refilling it from this worker's
// recycle rings before falling back to allocation.
func (w *worker) getFrame(width, n int) *frame {
	if len(w.freeFrames) == 0 {
		for _, q := range w.run.recycle[w.id] {
			if q == nil {
				continue
			}
			q.Drain(func(f *frame) { w.freeFrames = append(w.freeFrames, f) })
		}
	}
	f := pop(&w.freeFrames)
	if f == nil {
		f = &frame{}
		w.freshFrames++
	}
	if cap(f.hashes) < n {
		f.hashes = make([]uint64, n)
	}
	if cap(f.words) < n*width {
		f.words = make([]storage.Value, n*width)
	}
	f.hashes = f.hashes[:n]
	f.words = f.words[:n*width]
	f.width = int32(width)
	f.count = int32(n)
	return f
}

// inboxNonEmpty cheaply checks for queued messages: one bitmap load.
func (w *worker) inboxNonEmpty() bool {
	return w.inbox.Any()
}

// runBaseRules seeds the stratum: every worker evaluates a stripe of
// each base rule's outer relation. It resumes from the seed cursor and
// does nothing once the seed is complete, so every loop entry point
// calls it; only the cooperative phase ever leaves it early with the
// run still live.
func (w *worker) runBaseRules() {
	busyStart := w.run.clk.Refresh()
seed:
	for ; w.seedRule < len(w.baseKernels); w.seedRule, w.seedDone = w.seedRule+1, 0 {
		k := w.baseKernels[w.seedRule]
		if k.outer == nil {
			// Fact-style rule (conditions/lets only): one execution.
			if w.id == 0 {
				w.exec(k)
			}
			continue
		}
		tuples := w.run.store.scan(k.outer.Pred)
		for i := w.id + w.seedDone*w.run.n; i < len(tuples); i += w.run.n {
			if w.canceled() {
				// Abandon the seed mid-stripe: the run returns an
				// error and nothing here is materialized.
				return
			}
			if w.coopSpent() {
				// Keep the cursor; distribute what was derived.
				break seed
			}
			if k.bindOuter(tuples[i]) {
				w.exec(k)
			}
			w.drainChecks()
			w.seedDone++
		}
	}
	w.busyTime += time.Duration(w.run.clk.Refresh() - busyStart)
	w.drainSelf()
	w.flushAll()
}

// runAsync is the worker loop shared by SSP and DWS (and by every
// non-recursive stratum): Algorithm 2 with the asynchronous
// global-fixpoint detector of §6.1.
func (w *worker) runAsync() {
	w.runBaseRules()
	for {
		if w.canceled() {
			return
		}
		w.gather()
		total := w.pendingDelta()
		if total == 0 {
			// No local delta: run stolen morsels while still
			// detector-active (their derivations may even land back
			// here as fresh local delta). Only a dry steal plane
			// parks.
			if w.stealWork() {
				continue
			}
			if w.park() {
				return
			}
			continue
		}
		if w.run.st.Recursive {
			switch w.run.opts.Strategy {
			case coord.DWS:
				w.dwsGate(total)
			case coord.SSP:
				w.sspGate()
			}
		}
		w.iterate()
		w.run.clock.Advance(w.id)
	}
}

// runGlobal is the BSP loop of Algorithm 1: evaluate, barrier, gather,
// agree on emptiness.
func (w *worker) runGlobal() {
	w.runBaseRules()
	w.run.bar.Wait(false) // all seed messages enqueued
	for {
		if w.canceled() {
			// The barrier is canceled too (runCancel.trigger), so no
			// peer blocks waiting for our arrival.
			return
		}
		w.gather()
		has := w.pendingDelta() > 0
		waitStart := w.run.clk.Refresh()
		anyDelta := w.run.bar.Wait(has)
		w.waitTime += time.Duration(w.run.clk.Refresh() - waitStart)
		if w.id == 0 {
			w.run.stats.GlobalBarriers++
		}
		if !anyDelta {
			return
		}
		if has {
			w.iterate()
		} else {
			// Peers with deltas are iterating right now; take morsels
			// off their deques instead of idling at the barrier.
			w.globalSteal()
		}
		waitStart = w.run.clk.Refresh()
		w.run.bar.Wait(false) // all sends of this round enqueued
		w.waitTime += time.Duration(w.run.clk.Refresh() - waitStart)
	}
}

// park marks the worker inactive and waits for new input or the global
// fixpoint; it returns true when evaluation is over. The wait loop spins
// on this worker's one inbox word — the only line a producer touches to
// wake us — and throttles the O(workers) TryFinish scan: it runs on
// power-of-two rounds while yielding and on every sleep tick once the
// backoff has escalated, so a parked fleet probes the shards at sleep
// frequency instead of spin frequency.
//
// The loop also peeks the steal plane each round: a parked worker used
// to escalate into the sleep tier even while a peer advertised morsels
// it could run, stacking up to BackoffSleepMax of idle latency on work
// that was already available. Peek only — claiming a morsel produces
// and consumes exchange traffic, which is only sound while
// detector-active, so the worker unparks first and the main loop's
// stealWork claims it.
func (w *worker) park() bool {
	w.run.det.SetInactive(w.id)
	w.run.clock.Park(w.id)
	clk := w.run.clk
	start := clk.Refresh()
	defer func() { w.waitTime += time.Duration(clk.Refresh() - start) }()
	b := coord.Backoff{Clk: clk}
	slept := true // probe TryFinish on the first round
	for round := uint(0); ; round++ {
		if w.canceled() {
			// A canceled run never reaches the detector's fixpoint
			// (exiting peers may strand produced-but-unconsumed
			// frames), so the parked fleet exits on the cancel flag:
			// each spin round polls it, so the wakeup lands within one
			// backoff tick (≤ BackoffSleepMax of sleep).
			return true
		}
		if w.inboxNonEmpty() || w.stealAvailable() {
			w.run.det.SetActive(w.id)
			w.run.clock.Unpark(w.id)
			return false
		}
		if slept || round&(round-1) == 0 {
			if w.run.det.TryFinish() {
				return true
			}
		}
		slept = b.Pause()
	}
}

// dwsGate implements lines 5–8 of Algorithm 2: derive (ω, τ) from the
// queueing statistics and wait for the delta to fatten, bounded by the
// timeout.
func (w *worker) dwsGate(total int) {
	lambda, sigmaA2 := queueing.Combine(w.arrivals)
	d := queueing.Decide(lambda, sigmaA2, w.service.Mu(), w.service.SigmaS2(), w.run.opts.MaxWait.Seconds())
	if d.Omega <= 0 || total >= d.Omega {
		return
	}
	clk := w.run.clk
	start := clk.Refresh()
	deadline := start + int64(d.Tau*float64(time.Second))
	// While the delta fattens, spend would-be sleep ticks running
	// stolen morsels (the worker is active, so claiming is sound).
	b := coord.Backoff{Clk: clk, Help: w.helpFn}
	for clk.Now() < deadline {
		if w.canceled() {
			break
		}
		b.Pause()
		// pendingDelta scans every replica; skip it when the tick
		// gathered nothing — the delta cannot have fattened.
		if w.gather() > 0 {
			total = w.pendingDelta()
			if total == 0 || total >= d.Omega {
				break
			}
		}
	}
	w.waitTime += time.Duration(clk.Refresh() - start)
}

// sspGate blocks while the worker is more than Slack local iterations
// ahead of the slowest active worker, gathering while it waits.
func (w *worker) sspGate() {
	if w.run.clock.MayProceed(w.id) {
		return
	}
	clk := w.run.clk
	start := clk.Refresh()
	// Helping the slowest worker through its backlog is the fastest
	// way to be allowed to proceed, so the backoff steals before it
	// sleeps.
	b := coord.Backoff{Clk: clk, Help: w.helpFn}
	for {
		w.gather()
		if w.run.clock.MayProceed(w.id) {
			break
		}
		if w.canceled() {
			// Peers that exited on cancel never Advance their clocks;
			// without this check a fast worker could spin here forever.
			break
		}
		b.Pause()
	}
	w.waitTime += time.Duration(clk.Refresh() - start)
}

// deltaBlock is the number of outer delta tuples one rule variant binds
// before the next variant runs. Processing block-at-a-time keeps one
// kernel's frames, cursors and index nodes hot in cache across the
// whole block instead of touching every variant's working set per
// tuple; the block itself stays small enough to sit in L1/L2.
const deltaBlock = 256

// coopDeltaBlock is the block size during the cooperative phase, where
// the block boundary is also where a step notices that the stratum has
// proved big (coopSpent). A hub's delta rows can each derive hundreds
// of tuples, and a 256-row block of them overshoots the threshold
// eightfold on one goroutine; 16 keeps the overshoot near one block's
// derivations while still amortising the per-block checks.
const coopDeltaBlock = 16

// selfDrainWords bounds the self-pending arena. Left unchecked, one
// local iteration of a dense aggregate workload buffers every self-bound
// derivation until the iteration ends — tens of MB of doubling churn —
// and merges improved aggregates only after the whole delta is
// evaluated. Draining once the buffer passes this threshold keeps it
// cache-sized and makes better aggregate values visible to later probes
// of the same iteration, which coalesces away derivations that are
// already stale. Draining is only legal between kernel executions: no
// cursor is live then, so the replica trees may mutate. Merging early
// is monotone — a tuple merged now instead of at the iteration's end
// can only suppress derivations that dedup would discard anyway.
const selfDrainWords = 1 << 15

// iterate runs one local iteration: evaluate every pending delta tuple
// through its variants, then distribute the derivations. The delta is
// processed in blocks — for each block, every variant kernel drives all
// its join levels over the whole block before the next variant starts.
func (w *worker) iterate() {
	// Refreshing the coarse clock at the iteration boundary also keeps
	// the sentAt stamps flushBatch reads from it honest: a frame's stamp
	// is at most one local iteration stale.
	start := w.run.clk.Refresh()
	processed := 0
	// A canceled worker still drains its deltas (takeDelta) so exits
	// stay cheap, but evaluates none of them — same shape as a blown
	// budget, except the run returns the context's error, not Capped.
	capped := w.canceled() ||
		(w.run.opts.MaxLocalIters > 0 && w.localIters >= int64(w.run.opts.MaxLocalIters)) ||
		(w.run.opts.MaxTuples > 0 && w.run.derived.Load() > w.run.opts.MaxTuples)
replicas:
	for pi, paths := range w.replicas {
		for path, rep := range paths {
			var delta []storage.Tuple
			if c := w.carry; c.rows != nil && c.pred == pi && c.path == path {
				// Finish the delta the cooperative phase cut short; the
				// replica's newer rows wait for the next iteration (a
				// takeDelta now would recycle the buffer these view).
				delta, w.carry = c.rows, deltaCarry{}
			} else if len(rep.delta) > 0 {
				delta = rep.takeDelta()
			} else {
				continue
			}
			processed += len(delta)
			if capped {
				w.droppedDeltas = true
				continue
			}
			if w.run.stealOn && w.run.stealable[pi][path] && len(delta) > deltaBlock {
				// Publish the tail blocks for peers to steal; the
				// budget/cancel rechecks run per morsel inside.
				w.shareDelta(pi, path, delta)
				continue
			}
			kernels := w.recKernels[pi][path]
			busyStart := w.run.clk.Refresh()
			block := deltaBlock
			if w.run.coopUntil > 0 {
				block = coopDeltaBlock
			}
			for lo := 0; lo < len(delta); lo += block {
				// Re-check the tuple budget (and the cancel flag) per
				// block: diverging programs can explode inside a
				// single iteration.
				if w.canceled() {
					w.droppedDeltas = true
					break
				}
				if w.run.opts.MaxTuples > 0 &&
					w.run.derived.Load() > w.run.opts.MaxTuples {
					w.droppedDeltas = true
					break
				}
				if w.coopSpent() {
					// The stratum has proved big mid-delta: stop here,
					// distribute what was derived, and let this
					// worker's own goroutine evaluate the rest.
					w.carry = deltaCarry{pred: pi, path: path, rows: delta[lo:]}
					processed -= len(delta) - lo
					w.busyTime += time.Duration(w.run.clk.Refresh() - busyStart)
					break replicas
				}
				hi := lo + block
				if hi > len(delta) {
					hi = len(delta)
				}
				for _, k := range kernels {
					w.execBlock(k, delta[lo:hi])
				}
			}
			w.busyTime += time.Duration(w.run.clk.Refresh() - busyStart)
		}
	}
	// Join on published morsels before touching the self buffers: no
	// delta buffer may be recycled while a thief still reads it.
	w.finishMorsels()
	w.drainSelf()
	w.flushAll()
	w.service.Record(processed, float64(w.run.clk.Refresh()-start)/1e9)
	w.localIters++
}
