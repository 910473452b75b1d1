package engine

import (
	"math"

	"repro/internal/btree"
	"repro/internal/physical"
	"repro/internal/storage"
)

// replica is one worker's partition (or full copy, for broadcast
// predicates) of a recursive relation under one access path. Set
// semantics use a deduplicating tuple set plus incremental join
// indexes; aggregate semantics use the paper's B+-tree layout (§6.2.1):
// one tree keyed by the (path-first permuted) group key holding the
// current aggregate, and for count/sum a second tree keyed by
// (group, contributor) holding each contributor's latest contribution.
// Every replica is read and written by exactly one worker goroutine.
//
// All merge entry points take the tuple's wire hash (computed once by
// the sender's Distribute step): the full-tuple hash for set semantics,
// the hash of the wire-order group prefix for aggregates. The set
// relation, the existence cache and the delta coalescing index all
// reuse it instead of re-hashing.
type replica struct {
	pred     *physical.Pred
	pathIdx  int
	agg      storage.AggKind
	groupLen int
	valType  storage.Type
	// keyOrder permutes group columns into B+-tree key order; keyTypes
	// holds the column types in that order (the kernel's prefix-scan
	// termination check compares with them).
	keyOrder []int
	keyTypes []storage.Type

	// Set semantics.
	set    *storage.SetRelation
	incIdx []*incIndex

	// Aggregate semantics.
	aggTree     *btree.Tree
	contribTree *btree.Tree
	cache       *existCache

	// delta queues merged-and-changed tuples (schema order: group +
	// aggregate) for the next local iteration; unset when no variant
	// consumes this path. For aggregates the queue is coalesced per
	// group — only the latest aggregate matters, and without
	// coalescing, update counts amplify exponentially through cycles.
	// Set deltas are stable arena views and cost nothing to queue.
	//
	// Aggregate delta rows live in one of two flat word buffers (views
	// into the active one), and the per-group coalescing index is an
	// open-addressed, generation-stamped slot table keyed by the wire
	// group hash the exchange already shipped — takeDelta swaps the
	// buffers and bumps the generation, so steady-state delta queueing
	// allocates nothing. Double buffering matters: rows handed out by
	// takeDelta are still being evaluated while the next iteration's
	// rows accumulate.
	consume    bool
	delta      []storage.Tuple
	deltaSpare []storage.Tuple
	deltaWords [2][]storage.Value
	deltaCur   int
	deltaSlots []dedupSlot
	deltaMask  uint64
	deltaGen   uint32

	// Options.
	useCache  bool
	scanMerge bool // ablation: per-batch linear-scan merge (§7.3 w/o)
	eps       float64

	keyBuf  storage.Tuple // scratch permuted group key
	ckeyBuf storage.Tuple // scratch permuted (group, contributor) key
}

func newReplica(pred *physical.Pred, pathIdx int, opts *Options) *replica {
	pp := pred.Plan
	r := &replica{
		pred:     pred,
		pathIdx:  pathIdx,
		agg:      pp.Agg,
		groupLen: pp.GroupLen,
		keyOrder: pred.KeyOrders[pathIdx],
		useCache: !opts.NoExistCache,
		eps:      opts.Epsilon,
	}
	if pp.Agg == storage.AggNone {
		r.set = storage.NewSetRelation(pp.Schema)
		for _, cols := range pred.Lookups {
			r.incIdx = append(r.incIdx, newIncIndex(cols, r.set))
		}
		return r
	}
	r.valType = pp.Schema.ColType(pp.Schema.Arity() - 1)
	keyTypes := make([]storage.Type, len(r.keyOrder))
	for i, c := range r.keyOrder {
		keyTypes[i] = pp.Schema.ColType(c)
	}
	r.keyTypes = keyTypes
	r.aggTree = btree.New(keyTypes)
	if pp.Agg == storage.AggCount || pp.Agg == storage.AggSum {
		ctypes := append(append([]storage.Type(nil), keyTypes...), storage.TInt)
		r.contribTree = btree.New(ctypes)
		r.ckeyBuf = make(storage.Tuple, len(r.keyOrder)+1)
	}
	if r.useCache {
		r.cache = newExistCache(12, r.groupLen)
	}
	r.scanMerge = opts.NoIndexAgg && (pp.Agg == storage.AggMin || pp.Agg == storage.AggMax)
	r.keyBuf = make(storage.Tuple, len(r.keyOrder))
	return r
}

// permKey fills the scratch buffer with the wire tuple's group columns
// in B+-tree key order.
func (r *replica) permKey(wire storage.Tuple) storage.Tuple {
	for i, c := range r.keyOrder {
		r.keyBuf[i] = wire[c]
	}
	return r.keyBuf
}

// permCKey fills the contributor-key scratch buffer with the permuted
// group columns followed by the contributor value.
func (r *replica) permCKey(wire storage.Tuple, contributor storage.Value) storage.Tuple {
	for i, c := range r.keyOrder {
		r.ckeyBuf[i] = wire[c]
	}
	r.ckeyBuf[len(r.keyOrder)] = contributor
	return r.ckeyBuf
}

// better reports whether a beats b under the replica's extremum.
func (r *replica) better(a, b storage.Value) bool {
	if r.agg == storage.AggMin {
		return storage.Compare(a, b, r.valType) < 0
	}
	return storage.Compare(a, b, r.valType) > 0
}

// queueDelta records a post-merge (group + aggregate) tuple for the
// next local iteration, coalescing repeated updates of one group into
// a single pending row holding the latest aggregate. h is the wire
// group-key hash.
func (r *replica) queueDelta(h uint64, wire storage.Tuple, val storage.Value) {
	if !r.consume {
		return
	}
	if r.deltaSlots == nil {
		r.deltaSlots = make([]dedupSlot, outBatchMinSlots)
		r.deltaMask = outBatchMinSlots - 1
		r.deltaGen = 1
	}
	slot := h & r.deltaMask
	for {
		s := r.deltaSlots[slot]
		if s.gen != r.deltaGen {
			break
		}
		if s.hash == h {
			row := r.delta[s.idx]
			same := true
			for i := 0; i < r.groupLen; i++ {
				if row[i] != wire[i] {
					same = false
					break
				}
			}
			if same {
				row[r.groupLen] = val
				return
			}
		}
		slot = (slot + 1) & r.deltaMask
	}
	words := r.deltaWords[r.deltaCur]
	off := len(words)
	words = append(words, wire[:r.groupLen]...)
	words = append(words, val)
	r.deltaWords[r.deltaCur] = words
	// Views stay valid across append growth: a reallocation leaves old
	// rows pointing at the retired backing array, which is exactly
	// where their words live.
	row := storage.Tuple(words[off : off+r.groupLen+1 : off+r.groupLen+1])
	r.deltaSlots[slot] = dedupSlot{hash: h, gen: r.deltaGen, idx: int32(len(r.delta))}
	r.delta = append(r.delta, row)
	if uint64(len(r.delta))*4 > uint64(len(r.deltaSlots))*3 {
		r.growDeltaSlots()
	}
}

// growDeltaSlots doubles the coalescing table, rehousing current-
// generation entries.
func (r *replica) growDeltaSlots() {
	old := r.deltaSlots
	r.deltaSlots = make([]dedupSlot, 2*len(old))
	r.deltaMask = uint64(len(r.deltaSlots) - 1)
	for _, s := range old {
		if s.gen != r.deltaGen {
			continue
		}
		slot := s.hash & r.deltaMask
		for r.deltaSlots[slot].gen == r.deltaGen {
			slot = (slot + 1) & r.deltaMask
		}
		r.deltaSlots[slot] = s
	}
}

// takeDelta removes and returns the pending delta rows, swapping in the
// spare row/word buffers so the returned rows stay untouched while the
// next iteration's delta accumulates.
func (r *replica) takeDelta() []storage.Tuple {
	d := r.delta
	r.delta = r.deltaSpare[:0]
	r.deltaSpare = d
	r.deltaCur = 1 - r.deltaCur
	r.deltaWords[r.deltaCur] = r.deltaWords[r.deltaCur][:0]
	r.deltaGen++
	if r.deltaGen == 0 { // generation wrapped: scrub stale stamps once
		for i := range r.deltaSlots {
			r.deltaSlots[i] = dedupSlot{}
		}
		r.deltaGen = 1
	}
	return d
}

// mergeWire folds one wire-format tuple into the replica (the Gather
// operator's per-tuple work) and reports whether the replica changed.
// Everything the replica retains is copied out of wire, so the caller's
// buffer (a pooled frame or the self-pending arena) may be reused.
// Wire layouts: set → full tuple; min/max → group + value; count →
// group + contributor; sum → group + value + contributor.
func (r *replica) mergeWire(h uint64, wire storage.Tuple) bool {
	switch r.agg {
	case storage.AggNone:
		view, added := r.set.InsertHashed(h, wire)
		if !added {
			return false
		}
		id := int32(r.set.Len() - 1)
		for _, ix := range r.incIdx {
			ix.add(id)
		}
		if r.consume {
			r.delta = append(r.delta, view)
		}
		return true

	case storage.AggMin, storage.AggMax:
		val := wire[r.groupLen]
		group := wire[:r.groupLen]
		if r.useCache {
			if cur, ok := r.cache.get(h, group); ok && !r.better(val, cur) {
				return false // cache hit: no improvement, skip the tree
			}
		}
		res, changed := r.aggTree.Update(r.permKey(wire), func(cur storage.Value, exists bool) storage.Value {
			if exists && !r.better(val, cur) {
				return cur
			}
			return val
		})
		if r.useCache {
			r.cache.put(h, group, res)
		}
		if changed {
			r.queueDelta(h, wire, res)
		}
		return changed

	case storage.AggCount:
		contributor := wire[r.groupLen]
		if _, existed := r.contribTree.InsertFresh(r.permCKey(wire, contributor), 1); existed {
			return false
		}
		res, _ := r.aggTree.Update(r.permKey(wire), func(cur storage.Value, exists bool) storage.Value {
			if !exists {
				return storage.IntVal(1)
			}
			return storage.IntVal(cur.Int() + 1)
		})
		r.queueDelta(h, wire, res)
		return true

	case storage.AggSum:
		val := wire[r.groupLen]
		contributor := wire[r.groupLen+1]
		prev, existed := r.contribTree.InsertFresh(r.permCKey(wire, contributor), val)
		if existed && prev == val {
			return false
		}
		emit := true
		res, _ := r.aggTree.Update(r.permKey(wire), func(cur storage.Value, exists bool) storage.Value {
			if r.valType == storage.TFloat {
				sum := val.Float()
				if exists {
					sum += cur.Float()
				}
				if existed {
					sum -= prev.Float()
				}
				if exists && r.eps > 0 && math.Abs(sum-cur.Float()) <= r.eps {
					emit = false
				}
				return storage.FloatVal(sum)
			}
			sum := val.Int()
			if exists {
				sum += cur.Int()
			}
			if existed {
				sum -= prev.Int()
			}
			if exists && sum == cur.Int() {
				emit = false
			}
			return storage.IntVal(sum)
		})
		if emit {
			r.queueDelta(h, wire, res)
		}
		return emit
	}
	return false
}

// mergeFrame folds a drained exchange frame and returns the number of
// state changes. The frame may be recycled as soon as this returns. The
// ablation "w/o optimization" path replaces per-tuple index merges of
// extremum aggregates with the paper's unoptimized alternative: one
// linear scan over the deduplicated recursive table per batch (§6.2.1,
// Figure 7).
func (r *replica) mergeFrame(f *frame) int {
	if r.scanMerge {
		return r.mergeFrameScan(f)
	}
	changed := 0
	n := int(f.count)
	if r.agg == storage.AggNone {
		// Set-semantics frames carry precomputed hashes, so the dedup
		// table's slot line — a random load into a table that outgrows
		// L2 on the recursive queries — can be requested a fixed
		// distance ahead of the walk and arrive by the time InsertHashed
		// probes it.
		for i := 0; i < n; i++ {
			if j := i + mergeAhead; j < n {
				r.set.PrefetchSlot(f.hashes[j])
			}
			if r.mergeWire(f.hashes[i], f.row(i)) {
				changed++
			}
		}
		return changed
	}
	for i := 0; i < n; i++ {
		if r.mergeWire(f.hashes[i], f.row(i)) {
			changed++
		}
	}
	return changed
}

// mergeAhead is the slot-prefetch distance of the merge loops: far
// enough ahead to cover an LLC miss under the merge's per-tuple work,
// near enough that the line is still resident when the walk arrives.
const mergeAhead = 8

// mergeFrameScan merges a min/max frame without index assistance.
func (r *replica) mergeFrameScan(f *frame) int {
	type pend struct {
		wire  storage.Tuple
		wireH uint64 // wire group-key hash, for delta coalescing
		key   storage.Tuple
		val   storage.Value
		found bool
	}
	pending := make(map[uint64][]*pend, f.count)
	for i := 0; i < int(f.count); i++ {
		t := f.row(i)
		key := r.permKey(t).Clone()
		h := storage.HashValues(key)
		merged := false
		for _, p := range pending[h] {
			if p.key.Equal(key) {
				if r.better(t[r.groupLen], p.val) {
					p.val = t[r.groupLen]
					p.wire = t
					p.wireH = f.hashes[i]
				}
				merged = true
				break
			}
		}
		if !merged {
			pending[h] = append(pending[h], &pend{wire: t, wireH: f.hashes[i], key: key, val: t[r.groupLen]})
		}
	}
	// One full pass over the recursive table to resolve existing groups.
	var updates []*pend
	r.aggTree.Ascend(func(key storage.Tuple, cur storage.Value) bool {
		h := storage.HashValues(key)
		for _, p := range pending[h] {
			if !p.found && p.key.Equal(key) {
				p.found = true
				if r.better(p.val, cur) {
					updates = append(updates, p)
				}
				break
			}
		}
		return true
	})
	changed := 0
	apply := func(p *pend) {
		res, ch := r.aggTree.Update(p.key, func(cur storage.Value, exists bool) storage.Value {
			if exists && !r.better(p.val, cur) {
				return cur
			}
			return p.val
		})
		if ch {
			changed++
			r.queueDelta(p.wireH, p.wire, res)
		}
	}
	for _, p := range updates {
		apply(p)
	}
	for _, ps := range pending {
		for _, p := range ps {
			if !p.found {
				apply(p)
			}
		}
	}
	return changed
}

// appendTo appends the replica's contents as schema-order tuples to dst:
// arena views for sets, rows carved from one fresh backing array for
// aggregates. Neither aliases anything the replica recycles.
func (r *replica) appendTo(dst []storage.Tuple) []storage.Tuple {
	if r.agg == storage.AggNone {
		return r.set.AppendTo(dst)
	}
	width := r.groupLen + 1
	words := make([]storage.Value, r.aggTree.Len()*width)
	r.aggTree.Ascend(func(key storage.Tuple, val storage.Value) bool {
		row := storage.Tuple(words[:width:width])
		words = words[width:]
		for i, c := range r.keyOrder {
			row[c] = key[i]
		}
		row[r.groupLen] = val
		dst = append(dst, row)
		return true
	})
	return dst
}

// deltaBufs are a replica's delta queue buffers, recycled across runs
// through its worker's scratch.
type deltaBufs struct {
	rows  [2][]storage.Tuple
	words [2][]storage.Value
	slots []dedupSlot
}

// adoptDelta installs recycled delta buffers. Their contents are not
// trusted: the queues start empty and the coalescing table is cleared.
func (r *replica) adoptDelta(d deltaBufs) {
	r.delta, r.deltaSpare = d.rows[0][:0], d.rows[1][:0]
	r.deltaWords = [2][]storage.Value{d.words[0][:0], d.words[1][:0]}
	if len(d.slots) > 0 {
		clear(d.slots)
		r.deltaSlots, r.deltaMask, r.deltaGen = d.slots, uint64(len(d.slots)-1), 1
	}
}

// releaseDelta takes the delta buffers out of the replica for reuse.
// The row lists are cleared to their capacity: their views name the
// relation's arena and retired word buffers, which a pooled list must
// not keep alive.
func (r *replica) releaseDelta() deltaBufs {
	d := deltaBufs{rows: [2][]storage.Tuple{r.delta, r.deltaSpare}, words: r.deltaWords, slots: r.deltaSlots}
	for i, rows := range d.rows {
		clear(rows[:cap(rows)])
		d.rows[i] = rows[:0]
	}
	r.delta, r.deltaSpare, r.deltaWords, r.deltaSlots = nil, nil, [2][]storage.Value{}, nil
	return d
}

// size reports the number of distinct tuples/groups held.
func (r *replica) size() int {
	if r.agg == storage.AggNone {
		return r.set.Len()
	}
	return r.aggTree.Len()
}
