package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/queueing"
	"repro/internal/spsc"
)

// Cooperative start. Hash-partitioned workers pay for their
// parallelism per local iteration — a frame through a ring, a flag, a
// park that escalates into 20–50µs sleeps, an O(n) fixpoint scan — and
// a stratum that derives a few thousand tuples over a dozen iterations
// spends more on that than on tuples (the paper's §4 observation, from
// the other side). So a stratum starts on the calling goroutine: the n
// workers exist and are partitioned exactly as they will be in
// parallel, and the caller steps them round-robin through the same
// runBaseRules / gather / iterate / flush code, with no gate, no park
// and no detector scan. If the stratum reaches its fixpoint that way,
// no goroutine was started. Once it has derived coopThreshold tuples
// it has proved big: the same worker objects — replicas, pending
// deltas, ring contents, out-batches — are handed to n goroutines that
// carry on in runAsync / runGlobal. Nothing is repartitioned, re-derived
// or restarted; the go statement orders everything the caller wrote
// before everything the goroutines read.

// coopThreshold is the number of derived tuples (kernel output, sent
// and self-bound) after which a stratum stops being stepped by one
// goroutine and fans out. DESIGN.md §17 has the crossover measurement
// behind the value: below it a stratum finishes sooner on one
// goroutine than two can coordinate it; a stratum that crosses it has
// lost at most a millisecond or two of single-core work.
const coopThreshold = 16384

// coopLimit is the threshold runs read. Tests set it (0 = never
// cooperate, math.MaxInt64 = never widen); nothing else writes it.
var coopLimit int64 = coopThreshold

// coopQueueCap is the capacity of the rings opened during the
// cooperative phase. coopThreshold tuples are 64 frames at the default
// batch size, so a stratum that stays cooperative cannot fill one (a
// smaller batch size or a never-widening test can: the stepping
// goroutine then gathers for the consumer, see flushBatch), and a tiny
// stratum allocates 1 KiB per edge instead of 34.
const coopQueueCap = 64

// ringCap returns the capacity of both rings of an edge opened now. The
// recycle ring is as large as the data ring: one iteration's burst to a
// peer can fill the data ring, and the consumer hands all of those
// frames back before the producer reclaims any, so a smaller recycle
// ring drops the overflow to the GC and the producer allocates it
// afresh on the next burst.
func (run *stratumRun) ringCap() int {
	if run.coopUntil > 0 && run.opts.QueueCap > coopQueueCap {
		return coopQueueCap
	}
	return run.opts.QueueCap
}

// growRings replaces every ring the cooperative phase opened small
// with a full-size one holding the same frames in the same order, so
// the worker goroutines exchange through exactly the rings they would
// have had without a cooperative phase.
func (run *stratumRun) growRings() {
	capacity := run.ringCap()
	regrow := func(q *spsc.Queue[*frame]) *spsc.Queue[*frame] {
		if q == nil || q.Cap() >= capacity {
			return q
		}
		big := spsc.New[*frame](capacity)
		q.Drain(func(f *frame) { big.TryPush(f) })
		return big
	}
	for i := range run.queues {
		for j := range run.queues[i] {
			run.queues[i][j] = regrow(run.queues[i][j])
			run.recycle[i][j] = regrow(run.recycle[i][j])
		}
	}
}

// cooperate runs the stratum on the calling goroutine until it reaches
// its fixpoint, is canceled, or has derived limit tuples. It reports
// whether the stratum is over; false means the workers are to be
// widened onto goroutines from whatever state they are in.
func (run *stratumRun) cooperate(ctx context.Context, limit int64) (done bool) {
	if limit <= 0 {
		return false
	}
	// The threshold counts output, not input: a selective base rule
	// over a large relation would be scanned on one goroutine without
	// ever crossing it. A scan of more than limit tuples is itself the
	// proof that the stratum is big, so it runs in parallel from its
	// first tuple.
	for _, r := range run.st.BaseRules {
		if r.Outer != nil && int64(len(run.store.scan(r.Outer.Pred))) > limit {
			return false
		}
	}
	run.coopUntil = limit
	start := time.Now()
	defer func() {
		run.stats.CoopDuration = time.Since(start)
		for _, w := range run.workers {
			run.stats.CoopIters += w.localIters
		}
	}()
	// Each step stops by itself once the threshold is crossed
	// (worker.coopSpent), leaving a seed cursor or a delta carry behind,
	// and ends with a drain and a flush, so the same test after the
	// step sees everything it derived.
	for _, w := range run.workers {
		w.runBaseRules()
		if w.coopSpent() {
			return false
		}
	}
	for {
		if run.rc.expired(ctx) {
			return true
		}
		progress := false
		for _, w := range run.workers {
			w.gather()
			if w.pendingDelta() == 0 {
				continue
			}
			w.iterate()
			progress = true
			if w.coopSpent() {
				return false
			}
		}
		if !progress {
			// Every worker gathered and found nothing to evaluate, and
			// nobody produced during the pass: rings and deltas are
			// empty, which is the fixpoint.
			return true
		}
	}
}

// widen prepares the hand-off from the cooperative phase (or from
// nothing, when it was skipped) to one goroutine per worker: it makes
// the coordination state the goroutines share and clears what the
// single-goroutine phase measured, so the SSP clock, the DWS ω/τ
// decisions and the steal plane all start from parallel-phase
// observations. The detector needs no reset: no worker parked, so all
// are active, and TryFinish cannot succeed until each has entered its
// loop and parked itself.
func (run *stratumRun) widen() {
	run.coopUntil = 0
	run.growRings()
	run.stats.Widened = true
	run.stats.WidenedAfter = run.derived.Load()
	run.bar = coord.NewBarrier(run.n)
	run.rc.register(run.bar)
	run.clock = coord.NewClock(run.n, run.opts.Slack)
	run.initSteal()
	for _, w := range run.workers {
		w.service = queueing.ServiceTracker{}
		for _, a := range w.arrivals {
			*a = queueing.ArrivalTracker{}
		}
	}
}

// fanOut runs every worker on its own goroutine, from whatever state
// the cooperative phase left it in, and returns when all have exited.
func (run *stratumRun) fanOut() {
	var wg sync.WaitGroup
	for _, w := range run.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if run.opts.Strategy == coord.Global && run.st.Recursive {
				w.runGlobal()
			} else {
				w.runAsync()
			}
		}(w)
	}
	wg.Wait()
}
