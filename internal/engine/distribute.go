package engine

import (
	"runtime"

	"repro/internal/physical"
	"repro/internal/storage"
)

// outBatch buffers wire tuples bound for one (destination, predicate,
// path) and performs the Distribute operator's partial aggregation
// (§6.2.1): extremum batches keep only the best value per group,
// count/sum batches deduplicate contributors, set batches deduplicate
// tuples.
//
// Tuples are stored flat — row i occupies words[i*width:(i+1)*width] —
// with the wire hash of every row kept alongside, and the dedup index
// is an open-addressed, epoch-stamped slot table: clearing the batch is
// a generation bump, not a reallocation, so a worker's out-buffers
// reach a steady state where add/flush cycles allocate nothing.
type outBatch struct {
	agg      storage.AggKind
	groupLen int
	valType  storage.Type
	partial  bool
	width    int
	// extCol extends the wire hash (group-key hash) with one trailing
	// column to form the dedup identity: the contributor column of
	// count/sum batches. -1 when the wire hash is the identity already.
	extCol int
	// keyCols are the partial-aggregation identity columns of the wire
	// layout (nil for set batches, which compare whole tuples).
	keyCols []int

	count  int
	hashes []uint64        // wire hash per buffered row
	words  []storage.Value // count*width, flat

	slots []dedupSlot
	mask  uint64
	gen   uint32
}

// dedupSlot is one open-addressed dedup entry: a batch row index
// stamped with the generation that wrote it, plus the row's dedup hash
// so probe collisions are rejected without loading the row's words.
// Slots from earlier generations read as empty.
type dedupSlot struct {
	hash uint64
	gen  uint32
	idx  int32
}

const outBatchMinSlots = 64

// newOutBatch returns an empty batch for pred, built in the buffers of
// b (a batch an earlier run handed back) when it is not nil. Nothing of
// b's contents is trusted: rows are appended from zero and the slot
// table is cleared.
func newOutBatch(pred *physical.Pred, partial bool, b *outBatch) *outBatch {
	if b == nil {
		b = &outBatch{}
	}
	slots := b.slots
	*b = outBatch{
		agg:      pred.Plan.Agg,
		groupLen: pred.Plan.GroupLen,
		partial:  partial,
		width:    wireWidth(pred),
		extCol:   -1,
		gen:      1,
		hashes:   b.hashes[:0],
		words:    b.words[:0],
		keyCols:  b.keyCols[:0],
	}
	if b.agg != storage.AggNone {
		b.valType = pred.Plan.Schema.ColType(pred.Plan.Schema.Arity() - 1)
	}
	if partial {
		if len(slots) == 0 {
			slots = make([]dedupSlot, outBatchMinSlots)
		} else {
			clear(slots)
		}
		b.slots = slots
		b.mask = uint64(len(slots) - 1)
		switch b.agg {
		case storage.AggNone:
			// identity = whole tuple
		case storage.AggMin, storage.AggMax:
			b.keyCols = upto(b.keyCols, b.groupLen)
		case storage.AggCount:
			b.keyCols = upto(b.keyCols, b.groupLen+1) // group + contributor
			b.extCol = b.groupLen
		case storage.AggSum:
			// group + contributor (value sits between them).
			b.keyCols = append(upto(b.keyCols, b.groupLen), b.groupLen+1)
			b.extCol = b.groupLen + 1
		}
	}
	return b
}

// upto appends the column indexes 0..n-1 to cols.
func upto(cols []int, n int) []int {
	for i := 0; i < n; i++ {
		cols = append(cols, i)
	}
	return cols
}

// row returns the i-th buffered wire tuple as a view into the batch.
func (b *outBatch) row(i int) storage.Tuple {
	off := i * b.width
	return storage.Tuple(b.words[off : off+b.width : off+b.width])
}

// dedupHash derives the dedup identity hash of a wire tuple from its
// wire hash.
func (b *outBatch) dedupHash(h uint64, wire storage.Tuple) uint64 {
	if b.extCol >= 0 {
		return storage.ExtendHash(h, wire[b.extCol])
	}
	return h
}

// push appends a wire tuple's words and hash to the flat storage.
func (b *outBatch) push(h uint64, wire storage.Tuple) {
	b.hashes = append(b.hashes, h)
	b.words = append(b.words, wire...)
	b.count++
}

// add buffers a wire tuple (copying it, so the caller may reuse the
// buffer), merging it into the batch when partial aggregation applies,
// and returns the batch size. h is the tuple's wire hash.
func (b *outBatch) add(h uint64, wire storage.Tuple) int {
	if !b.partial {
		b.push(h, wire)
		return b.count
	}
	dh := b.dedupHash(h, wire)
	slot := dh & b.mask
	for {
		s := b.slots[slot]
		if s.gen != b.gen {
			break // empty under the current generation
		}
		if s.hash != dh {
			slot = (slot + 1) & b.mask
			continue
		}
		t := b.row(int(s.idx))
		if !sameKey(t, wire, b.agg, b.keyCols) {
			slot = (slot + 1) & b.mask
			continue
		}
		switch b.agg {
		case storage.AggNone, storage.AggCount:
			// Duplicate tuple / contributor: drop.
		case storage.AggMin:
			if storage.Compare(wire[b.groupLen], t[b.groupLen], b.valType) < 0 {
				copy(t, wire)
			}
		case storage.AggMax:
			if storage.Compare(wire[b.groupLen], t[b.groupLen], b.valType) > 0 {
				copy(t, wire)
			}
		case storage.AggSum:
			// Same contributor: the later contribution replaces.
			copy(t, wire)
		}
		return b.count
	}
	b.slots[slot] = dedupSlot{hash: dh, gen: b.gen, idx: int32(b.count)}
	b.push(h, wire)
	if uint64(b.count)*4 > uint64(len(b.slots))*3 {
		b.growSlots()
	}
	return b.count
}

// growSlots doubles the dedup table, re-stamping every buffered row
// from its cached wire hash.
func (b *outBatch) growSlots() {
	b.slots = make([]dedupSlot, 2*len(b.slots))
	b.mask = uint64(len(b.slots) - 1)
	b.gen = 1
	for i := 0; i < b.count; i++ {
		dh := b.dedupHash(b.hashes[i], b.row(i))
		slot := dh & b.mask
		for b.slots[slot].gen == b.gen {
			slot = (slot + 1) & b.mask
		}
		b.slots[slot] = dedupSlot{hash: dh, gen: b.gen, idx: int32(i)}
	}
}

// reset clears the batch for reuse, retaining every buffer. The dedup
// table is cleared by bumping the generation stamp.
func (b *outBatch) reset() {
	b.count = 0
	b.hashes = b.hashes[:0]
	b.words = b.words[:0]
	if !b.partial {
		return
	}
	b.gen++
	if b.gen == 0 { // generation wrapped: scrub stale stamps once
		for i := range b.slots {
			b.slots[i] = dedupSlot{}
		}
		b.gen = 1
	}
}

func sameKey(a, b storage.Tuple, agg storage.AggKind, keyCols []int) bool {
	if agg == storage.AggNone {
		return a.Equal(b)
	}
	for _, c := range keyCols {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// flushBatch packages a batch's rows into BatchSize-bounded pooled
// frames and pushes them into the destination's inbox ring, then resets
// the batch. If a ring is full the worker drains its own inbox while
// waiting, which breaks producer/consumer cycles when every worker's
// ring is saturated. It runs only at iteration boundaries, where
// gathering into the replicas is safe.
func (w *worker) flushBatch(dest, predIdx, pathIdx int, b *outBatch) {
	q := w.run.queues[dest][w.id]
	if q == nil {
		q = w.openEdge(dest)
	}
	inbox := w.run.inboxes[dest]
	// One clock refresh stamps the whole batch (the old code read
	// time.Now() per frame). Refreshing rather than reading matters for
	// the DWS statistics: frames flushed by one iteration would
	// otherwise share a stamp, and the arrival trackers skip zero gaps —
	// the consumer's λ estimate collapsed onto one sample per producer
	// iteration and the gates mis-sized ω, measurably slowing the
	// coordination-bound trajectory cells.
	sentAt := w.run.clk.Refresh()
	for start := 0; start < b.count; {
		n := w.run.opts.BatchSize
		if n > b.count-start {
			n = b.count - start
		}
		f := w.getFrame(b.width, n)
		f.pred = int32(predIdx)
		f.path = int32(pathIdx)
		f.sentAt = sentAt
		copy(f.hashes, b.hashes[start:start+n])
		copy(f.words, b.words[start*b.width:(start+n)*b.width])
		start += n
		w.run.det.Produce(w.id, n)
		w.run.derived.Add(int64(n))
		for !q.TryPush(f) {
			if w.canceled() {
				// The consumer may already have exited, leaving its
				// ring full forever. Drop the batch — the run returns
				// an error and every exchange byproduct is discarded
				// (the stranded Produce count only matters to a
				// fixpoint this run will never declare).
				b.reset()
				return
			}
			if w.run.coopUntil > 0 {
				// Cooperative phase: the consumer is not running, and
				// it is between kernel executions like every worker but
				// this one, so this goroutine gathers on its behalf.
				w.run.workers[dest].gather()
				continue
			}
			// Draining our own inbox here is what prevents the cycle
			// "every ring full, every producer blocked". Under the
			// Global strategy it admits next-round tuples slightly
			// early, which only adds them to a delta that the round
			// boundary would have delivered anyway.
			w.gather()
			runtime.Gosched()
		}
		// Flag the consumer's bitmap strictly after the push lands: the
		// consumer swaps the word to zero before scanning, so this order
		// guarantees the frame is either seen by the in-progress drain or
		// re-flagged for the next one — never silently stranded.
		inbox.Set(w.id)
	}
	b.reset()
}

// flushAll sends every buffered batch (end of a local iteration).
func (w *worker) flushAll() {
	for dest, preds := range w.outBufs {
		if preds == nil {
			continue
		}
		for predIdx, paths := range preds {
			for pathIdx, b := range paths {
				if b.count > 0 {
					w.flushBatch(dest, predIdx, pathIdx, b)
				}
			}
		}
	}
	w.flushPending = w.flushPending[:0]
}
