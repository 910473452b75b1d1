package engine

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/coord"
	"repro/internal/deque"
	"repro/internal/storage"
)

// Morsel-driven delta scheduling. Hash partitioning balances *state*,
// not *work*: on hub-skewed graphs the partition owning a hub's join
// key receives most of the delta (and each of its rows probes the
// hub's oversized bucket), so one worker grinds while the rest park —
// the load imbalance Fan et al. identify as the dominant scaling
// obstacle for shared-memory Datalog. The steal plane fixes this by
// decoupling *where a delta is evaluated* from *where its results
// live*:
//
//   - A worker whose gathered delta for one (pred, path) replica spans
//     more than one deltaBlock publishes the tail blocks as morsels on
//     its own Chase–Lev deque (shareDelta) and advertises their row
//     count in a padded per-worker atomic, then evaluates blocks
//     LIFO-locally (finishMorsels) — the common uncontended case costs
//     a few uncontended atomics per 256 rows.
//   - A worker that would otherwise wait — before parking, inside the
//     DWS/SSP gate backoffs, in a Global round it has no delta for —
//     picks the peer advertising the most pending rows and steals the
//     oldest morsel off its deque (trySteal), executing it with its
//     OWN kernels.
//
// Only computation moves. A morsel is stealable iff every rule variant
// its delta drives probes nothing but base/earlier-stratum relations
// (initSteal): those live in the run's immutable shared store, so the
// thief's kernels — compiled against that same store — derive exactly
// the tuples the owner's would. Derivations route through the normal
// hash-partitioned emit/Distribute path regardless of who executes,
// so state ownership, dedup scopes and result relations are untouched;
// with stealing on or off the engine derives the identical relation.
// Variants that probe recursive state (APSP's non-linear rule) read
// the owner's private replica and are never published, and broadcast
// predicates are excluded because their evaluation is intentionally
// replicated per worker.
//
// Lifetime: morsel rows are views into the replica's delta buffers,
// which takeDelta recycles on a later iteration. The owner therefore
// joins on its outstanding-morsel counter before leaving iterate
// (finishMorsels): no delta buffer is reused while a thief can still
// read it. While joining, the owner helps (steals from peers) and
// gathers its own inbox, so a thief blocked pushing into the owner's
// full ring always unblocks — the same discipline flushBatch uses.
//
// Termination stays sound: a thief runs morsels only while
// detector-active, crediting produced/consumed counters to its own
// shard (the double-scan TryFinish proof tolerates arbitrary shard
// attribution), and a parked worker's deque is empty by construction —
// iterate never returns with unfinished morsels — so the detector can
// never declare a fixpoint while stolen work is in flight. park only
// *peeks* the steal plane (stealAvailable) and unparks to claim work
// from the main loop, keeping the Produce/Consume-only-while-active
// discipline intact.

// morselCap bounds the morsels one worker can have published at once;
// the deque and the arena are both this size, so a push can only fail
// defensively. 2048 morsels × 256 rows covers a one-million-row delta
// wave per (pred, path) before overflow blocks simply run locally.
const morselCap = 2048

// morsel is one stealable unit: a block of delta rows for one
// (pred, path) replica. The rows slice is a view into the owner's
// delta buffer — valid until the owner's outstanding counter says
// every morsel of the iteration is done.
type morsel struct {
	pred, path int32
	rows       []storage.Tuple
}

// stealCacheLine matches the coherence granule padded elsewhere
// (spsc, deque, detector shards).
const stealCacheLine = 64

// stealShard is one worker's slot on the steal plane. rows is the
// load hint thieves rank victims by (pending stealable rows);
// outstanding is the published-but-unfinished morsel count the owner
// joins on. Each worker's shard owns its cache lines outright so
// thieves scanning the hints never ping-pong a neighbor's counters.
type stealShard struct {
	rows        atomic.Int64
	outstanding atomic.Int64
	_           [stealCacheLine - 16]byte
}

var stealLayoutProbe [2]stealShard

// Compile-time guards, spsc-style: a stealShard must tile cache lines
// exactly or adjacent workers' shards would share one.
var (
	_ [-(unsafe.Sizeof(stealLayoutProbe[0]) % stealCacheLine)]byte
	_ [-(unsafe.Offsetof(stealLayoutProbe[1].rows) % stealCacheLine)]byte
)

// initSteal decides whether the steal plane is on for this stratum and
// which (pred, path) deltas are safe to publish, and gives every worker
// its deque and morsel arena. Called by widen: until the workers run on
// their own goroutines there is nobody to steal, stealOn is false and
// none of this is allocated.
func (run *stratumRun) initSteal() {
	run.stealable = make([][]bool, len(run.st.Preds))
	any := false
	for pi, p := range run.st.Preds {
		run.stealable[pi] = make([]bool, len(p.Plan.Paths))
		if p.Plan.Broadcast {
			continue
		}
		for path, rules := range run.variants[pi] {
			if len(rules) == 0 {
				continue
			}
			safe := true
			for _, r := range rules {
				for i := range r.Ops {
					if acc := r.Ops[i].Access; acc != nil && acc.PredIdx >= 0 {
						safe = false
						break
					}
				}
				if !safe {
					break
				}
			}
			run.stealable[pi][path] = safe
			any = any || safe
		}
	}
	run.stealOn = run.n > 1 && !run.opts.StealOff && any
	if !run.stealOn {
		return
	}
	run.steal = make([]stealShard, run.n)
	for _, w := range run.workers {
		// Deque and arena are the same size, so a publish can only
		// fail defensively (see shareDelta).
		w.deque = deque.New(morselCap)
		w.morselBuf = make([]morsel, morselCap)
		// One bound method value, built here so gate backoffs can hand
		// it to coord.Backoff.Help without allocating per wait.
		w.helpFn = w.trySteal
	}
}

// shareDelta publishes a stealable delta's tail blocks as morsels on
// this worker's deque and evaluates the first block immediately (the
// freshest rows, still cache-warm from the gather that merged them).
// The outstanding/rows counters are raised BEFORE the deque publish:
// if they trailed it, a fast thief could steal, finish and decrement
// first, letting the owner's join observe zero with the morsel still
// running.
func (w *worker) shareDelta(pi, path int, delta []storage.Tuple) {
	sh := &w.run.steal[w.id]
	for lo := deltaBlock; lo < len(delta); lo += deltaBlock {
		hi := lo + deltaBlock
		if hi > len(delta) {
			hi = len(delta)
		}
		rows := delta[lo:hi]
		if w.morselN == len(w.morselBuf) {
			// Arena exhausted — an enormous delta wave. Overflow blocks
			// run locally; the published prefix is already stealable.
			w.execMorselRows(pi, path, rows)
			continue
		}
		m := &w.morselBuf[w.morselN]
		m.pred, m.path, m.rows = int32(pi), int32(path), rows
		sh.outstanding.Add(1)
		sh.rows.Add(int64(len(rows)))
		if !w.deque.PushBottom(uint64(w.morselN)) {
			// Defensive: the deque is arena-sized, so this cannot fire
			// while the sizes stay matched.
			sh.outstanding.Add(-1)
			sh.rows.Add(-int64(len(rows)))
			w.execMorselRows(pi, path, rows)
			continue
		}
		w.morselN++
	}
	w.execMorselRows(pi, path, delta[:deltaBlock])
}

// execMorselRows drives one block of delta rows through every variant
// kernel for (pi, path), with the same per-block budget and cancel
// rechecks the unshared path performs. The elapsed time lands in the
// executing worker's busy counter — stolen blocks credit the thief,
// which is exactly what the imbalance ratio should see.
func (w *worker) execMorselRows(pi, path int, rows []storage.Tuple) {
	if w.canceled() ||
		(w.run.opts.MaxTuples > 0 && w.run.derived.Load() > w.run.opts.MaxTuples) {
		w.droppedDeltas = true
		return
	}
	clk := w.run.clk
	start := clk.Refresh()
	for _, k := range w.recKernels[pi][path] {
		w.execBlock(k, rows)
	}
	w.busyTime += time.Duration(clk.Refresh() - start)
}

// runMorsel executes one published morsel from victim's arena (victim
// may be w itself, popping its own deque). The outstanding decrement
// comes LAST: it is the release edge after which the victim may reuse
// both the arena slot and the delta buffer the rows view.
func (w *worker) runMorsel(victim int, idx uint64) {
	m := &w.run.workers[victim].morselBuf[idx]
	sh := &w.run.steal[victim]
	sh.rows.Add(-int64(len(m.rows)))
	w.execMorselRows(int(m.pred), int(m.path), m.rows)
	w.steal.MorselsExecuted++
	if victim != w.id {
		w.steal.MorselsStolen++
	}
	sh.outstanding.Add(-1)
}

// finishMorsels drains this worker's own deque LIFO, then joins on the
// morsels thieves claimed. The join is mandatory — morsel rows are
// views into delta buffers recycled by a later takeDelta — and it
// cannot deadlock: while waiting the worker keeps stealing from peers
// (help-first) and gathering its own inbox, so a thief stuck pushing
// into one of this worker's full rings always drains.
func (w *worker) finishMorsels() {
	if !w.run.stealOn {
		return
	}
	for {
		idx, ok := w.deque.PopBottom()
		if !ok {
			break
		}
		w.runMorsel(w.id, idx)
	}
	sh := &w.run.steal[w.id]
	if sh.outstanding.Load() > 0 {
		clk := w.run.clk
		start := clk.Refresh()
		b := coord.Backoff{Clk: clk}
		for sh.outstanding.Load() > 0 {
			if w.trySteal() {
				b.Reset()
				continue
			}
			w.gather()
			b.Pause()
		}
		w.waitTime += time.Duration(clk.Refresh() - start)
	}
	// All published morsels are done; the arena may be reused.
	w.morselN = 0
}

// trySteal claims and executes one morsel, preferring the peer
// advertising the most pending rows and sweeping the remaining
// advertisers once if that race is lost. Callers must be
// detector-active: executing a morsel produces and consumes exchange
// traffic, credited to this worker's shard.
func (w *worker) trySteal() bool {
	run := w.run
	if !run.stealOn {
		return false
	}
	best := -1
	var bestRows int64
	for v := range run.steal {
		if v == w.id {
			continue
		}
		if r := run.steal[v].rows.Load(); r > bestRows {
			best, bestRows = v, r
		}
	}
	if best < 0 {
		return false
	}
	if w.stealFrom(best) {
		return true
	}
	for v := range run.steal {
		if v == w.id || v == best || run.steal[v].rows.Load() <= 0 {
			continue
		}
		if w.stealFrom(v) {
			return true
		}
	}
	return false
}

// stealFrom attempts one steal against victim's deque.
func (w *worker) stealFrom(victim int) bool {
	w.steal.Attempts++
	idx, ok := w.run.workers[victim].deque.Steal()
	if !ok {
		w.steal.Failures++
		return false
	}
	w.runMorsel(victim, idx)
	return true
}

// stealWork runs stolen morsels until the plane is dry, then drains
// and flushes the derivations so they are fully distributed before the
// caller parks or hits a barrier. Returns whether anything ran.
func (w *worker) stealWork() bool {
	if !w.run.stealOn {
		return false
	}
	did := false
	for w.trySteal() {
		did = true
		if w.canceled() {
			break
		}
	}
	if did {
		w.drainSelf()
		w.flushAll()
	}
	return did
}

// stealAvailable peeks the load hints without claiming anything — the
// only steal-plane call legal while parked (detector-inactive).
func (w *worker) stealAvailable() bool {
	if !w.run.stealOn {
		return false
	}
	for v := range w.run.steal {
		if v != w.id && w.run.steal[v].rows.Load() > 0 {
			return true
		}
	}
	return false
}

// globalSteal gives an idle Global-round worker (no delta this round)
// a window to take morsels from the peers that do have one. The plane
// only fills once a peer enters iterate, so a single immediate probe
// would usually miss; the worker instead probes through one backoff
// escalation and heads to the barrier once the plane stays dry past a
// sleep tick.
func (w *worker) globalSteal() {
	if !w.run.stealOn {
		return
	}
	b := coord.Backoff{Clk: w.run.clk}
	for !w.canceled() {
		if w.stealWork() {
			b.Reset()
			continue
		}
		if b.Pause() {
			return
		}
	}
}
