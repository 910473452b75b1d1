package engine

import (
	"math"
	"sync"
	"unsafe"

	"repro/internal/spsc"
	"repro/internal/storage"
)

// Run scratch reuse. A stratum's workers grow buffers whose contents
// are dead once the stratum is materialized — the self-pending arena,
// out-batches, exchange frames, aggregate delta queues — and a short
// run spends more on growing them from nothing, and on the collections
// their garbage sets off, than on its tuples. So workers come from a
// package-level pool with the scratch of an earlier run still attached,
// and runStratum hands them back on every exit path once no goroutine
// can touch them. The pool is package-level rather than per Prepared
// because Database.Query compiles afresh on every call: the one-off
// point queries that pay most for their garbage would never hit a
// per-program cache. Tuple arenas, and anything a Result, a view or a
// later stratum's store aliases, are never pooled (DESIGN.md, "Run
// scratch reuse").

// workerPool holds workers whose run state has been zeroed; only the
// embedded scratch survives a trip through it.
var workerPool = sync.Pool{New: func() any { return new(worker) }}

// scratch is the part of a worker that outlives its run. Within a run
// the buffers are reset, not reallocated; across runs they are reused
// as long as a worker's total stays under storage.RecycleMaxBytes.
type scratch struct {
	// Self-bound derivations are buffered flat until the end of the
	// local iteration (Algorithm 2 line 16: R ← R ∪ δ happens after
	// evaluation, and the replica trees must not mutate under an active
	// probe). selfWords holds the tuple words back to back; selfRefs
	// records routing plus each tuple's precomputed wire hash.
	selfWords []storage.Value
	selfRefs  []selfRef

	// freeFrames is the producer-local frame free list. Frames this
	// worker sent come back to it through the per-edge recycle rings
	// and are reused here, so a frame's backing arrays stay with the
	// worker whose batch sizes shaped them.
	freeFrames []*frame

	// batches and deltas hold the out-batches and replica delta buffers
	// an earlier run handed back, for newWorker to build the next run's
	// from.
	batches []*outBatch
	deltas  []deltaBufs
}

// pop removes and returns the last element of a free list, or the zero
// value when the list is empty.
func pop[T any](list *[]T) T {
	var zero T
	k := len(*list) - 1
	if k < 0 {
		return zero
	}
	x := (*list)[k]
	(*list)[k] = zero
	*list = (*list)[:k]
	return x
}

// release hands every worker back to the pool with its scratch. Frames
// still in a ring — recycled but not yet reclaimed, or stranded by a
// canceled or capped run — go back to the worker that sized them
// (queues[consumer][producer], recycle[owner][peer]). Only legal once
// no worker goroutine runs and nothing will read a replica again.
func (run *stratumRun) release() {
	reclaim := func(owner *worker, q *spsc.Queue[*frame]) {
		if q != nil {
			q.Drain(func(f *frame) { owner.freeFrames = append(owner.freeFrames, f) })
		}
	}
	for c := range run.queues {
		for p := range run.queues[c] {
			reclaim(run.workers[p], run.queues[c][p])
			reclaim(run.workers[c], run.recycle[c][p])
		}
	}
	for _, w := range run.workers {
		w.release()
	}
	run.workers = nil
}

// release collects the worker's out-batches, delta buffers and set
// tables, trims its scratch to the size cap and puts it in the pool.
func (w *worker) release() {
	for _, preds := range w.outBufs {
		for _, paths := range preds {
			w.batches = append(w.batches, paths...)
		}
	}
	for _, paths := range w.replicas {
		for _, rep := range paths {
			if rep.consume {
				w.deltas = append(w.deltas, rep.releaseDelta())
			}
			if rep.set != nil {
				rep.set.Release()
			}
		}
	}
	w.scratch.trim(storage.RecycleMaxBytes)
	if storage.PoisonReleased {
		w.scratch.poison()
	}
	*w = worker{scratch: w.scratch}
	workerPool.Put(w)
}

// trim keeps buffers, in order of what a small run regrows first, while
// their total fits in budget bytes; the rest are dropped for the GC.
func (s *scratch) trim(budget int) {
	fits := func(bytes int) bool {
		if bytes > budget {
			return false
		}
		budget -= bytes
		return true
	}
	if !fits(bytesOf(s.selfWords)) {
		s.selfWords = nil
	}
	if !fits(bytesOf(s.selfRefs)) {
		s.selfRefs = nil
	}
	s.batches = keep(s.batches, func(b *outBatch) bool {
		return fits(bytesOf(b.hashes) + bytesOf(b.words) + bytesOf(b.slots))
	})
	s.deltas = keep(s.deltas, func(d deltaBufs) bool {
		return fits(bytesOf(d.rows[0]) + bytesOf(d.rows[1]) + bytesOf(d.words[0]) + bytesOf(d.words[1]) + bytesOf(d.slots))
	})
	s.freeFrames = keep(s.freeFrames, func(f *frame) bool {
		return fits(bytesOf(f.hashes) + bytesOf(f.words))
	})
}

// keep filters xs in place and zeroes the dropped tail, so that the
// backing array pins nothing it no longer lists.
func keep[T any](xs []T, ok func(T) bool) []T {
	kept := xs[:0]
	for _, x := range xs {
		if ok(x) {
			kept = append(kept, x)
		}
	}
	clear(xs[len(kept):])
	return kept
}

func bytesOf[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// poisonWord is what poison writes over recycled words and hashes: no
// real tuple or hash is made of it.
const poisonWord = 0xdeadbeefdeadbeef

// poison overwrites every buffer in the scratch to its capacity (see
// storage.PoisonReleased): a reader that still aliases one after its
// run sees garbage, and a writer that trusts recycled contents breaks.
func (s *scratch) poison() {
	slot := dedupSlot{hash: poisonWord, gen: math.MaxUint32, idx: math.MaxInt32}
	fillCap(s.selfWords, poisonWord)
	fillCap(s.selfRefs, selfRef{pred: -1, path: -1, off: -1, hash: poisonWord})
	for _, f := range s.freeFrames {
		f.count = -1
		fillCap(f.words, poisonWord)
		fillCap(f.hashes, poisonWord)
	}
	for _, b := range s.batches {
		b.count = -1
		fillCap(b.words, poisonWord)
		fillCap(b.hashes, poisonWord)
		fillCap(b.slots, slot)
	}
	for _, d := range s.deltas {
		fillCap(d.words[0], poisonWord)
		fillCap(d.words[1], poisonWord)
		fillCap(d.slots, slot)
	}
}

// fillCap writes v over s up to its capacity.
func fillCap[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
