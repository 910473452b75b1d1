package engine

import (
	"repro/internal/ast"
	"repro/internal/btree"
	"repro/internal/physical"
	"repro/internal/storage"
)

// This file is the flattened, cursor-driven evaluation kernel that
// replaced the recursive closure-per-probe interpreter. A compiled
// physical.Rule becomes a kernel: a flat array of op frames, one per
// pipeline op, each join frame owning an explicit cursor into its probe
// source (base hash-index bucket, base scan, incremental join index,
// set-relation index scan, or aggregate B+-tree). Execution walks the
// frame array iteratively — descend on match, jump to the nearest
// enclosing join frame (precomputed in Rule.PrevJoin) on failure or
// after an emit — so the hot loop performs no recursion, allocates no
// closures, and keeps one rule's cursors and slot array hot while a
// block of delta tuples drives it.

// probeSrc discriminates a join frame's cursor source, resolved once at
// kernel construction.
type probeSrc uint8

const (
	// srcBaseLookup probes a global hash index bucket on a base or
	// earlier-stratum relation.
	srcBaseLookup probeSrc = iota
	// srcBaseScan walks all tuples of a base relation.
	srcBaseScan
	// srcIncLookup walks an incremental join index chain on a
	// set-semantics recursive replica.
	srcIncLookup
	// srcSetScan walks a set replica by insertion index, bounded by the
	// set's length at cursor start.
	srcSetScan
	// srcAggGet resolves a fully-bound group key with one B+-tree get.
	srcAggGet
	// srcAggScan walks a whole aggregate B+-tree in key order.
	srcAggScan
	// srcAggPrefix walks the B+-tree range sharing a bound key prefix.
	srcAggPrefix
	// srcProber asks a registered MembershipProber (negation frames
	// only; the probe key is the full tuple in schema order).
	srcProber
)

// kframe is one executable op frame. Cond/let/neg frames are pure
// filters; join frames additionally carry cursor state that survives
// across enter/advance calls, plus reusable key and aggregate-row
// scratch so the steady state never allocates.
type kframe struct {
	kind     physical.OpKind
	prevJoin int

	// OpCond.
	cmp  ast.CmpOp
	l, r *physical.Expr

	// OpLet.
	slot     int
	expr     *physical.Expr
	slotType storage.Type

	// OpJoin / OpNeg probe shape.
	acc      *physical.Access
	colTypes []storage.Type
	baseIdx  *storage.HashIndex
	scanRows []storage.Tuple
	rep      *replica
	key      []storage.Value
	row      storage.Tuple
	src      probeSrc
	// pureKey marks a negation probe with no residual conditions
	// beyond the key columns, so exists() collapses to a direct
	// HashIndex.Contains bucket walk.
	pureKey bool

	// pc points at the owning worker's probe-counter bag; every
	// directory walk, key compare and Bloom consultation below charges
	// it (plain int64s, single writer).
	pc *storage.ProbeCounters
	// bloom is a lookup join frame's guard state (see bloomState). A
	// frame starts warming (the zero value), counting probes/hits until
	// the warmup window closes; the decision then freezes into
	// bloomGuard or bloomPass so the steady-state probe carries one
	// byte compare of bookkeeping instead of two counters and a ratio.
	// Anti-join frames never consult the guard.
	bloom       bloomState
	bloomProbes int32
	bloomHits   int32

	// Cursor state. Base-lookup cursors are [pos, end) row-ordinal
	// ranges into the index arena (srcBaseLookup) or the scan slice
	// (srcBaseScan, srcSetScan) — no per-bucket slice is materialized.
	// keyOK marks an audited (Keyed) base bucket whose first row already
	// verified the probe key: the rest of the walk skips key compares.
	pos     int
	end     int
	keyOK   bool
	inc     incCursor
	aggCur  btree.Cursor
	aggOnce bool

	// prober serves srcProber frames: a caller-owned membership oracle
	// standing in for a stored relation (fully-bound negation only).
	prober MembershipProber
}

// bloomState is a join frame's warming-or-frozen Bloom-guard decision.
// The guard earns its keep on miss-heavy positive joins, such as the
// view-maintenance delta rules probing a base relation with mostly
// absent keys; joins that mostly hit (the recursive fixpoints) freeze
// into bloomPass and pay nothing after the warmup.
type bloomState uint8

const (
	// bloomWarm counts probes and hits until the warmup window closes,
	// then freezes into bloomGuard or bloomPass.
	bloomWarm bloomState = iota
	// bloomGuard consults the index's Bloom filter before every walk
	// (warmed-up miss-heavy frames).
	bloomGuard
	// bloomPass walks the directory unguarded (warmed-up frames whose
	// probes mostly hit).
	bloomPass
)

// bloomWarmup is the probe count after which a bloomWarm frame freezes
// its guard decision: guard only if fewer than 1/4 of the warmup
// probes hit.
const bloomWarmup = 512

// decideBloom closes a frame's warmup window.
func (f *kframe) decideBloom() {
	if f.bloomHits < f.bloomProbes/4 {
		f.bloom = bloomGuard
	} else {
		f.bloom = bloomPass
	}
}

// kernel is one worker's executable form of one rule variant: the frame
// array plus the rule's slot scratch. Built once per (worker, rule) at
// stratum start; all state is reused across every driving tuple.
type kernel struct {
	rule       *physical.Rule
	slots      []storage.Value
	frames     []kframe
	last       int
	outer      *physical.Access
	outerTypes []storage.Type
	// pf is the frame index of the rule's first join when that join is
	// lookup-shaped (base hash index or incremental index) and every
	// frame before it is a pure filter (cond/let) — the shape the
	// staged probe pipeline can hash and prefetch a group ahead
	// (pipeline.go). -1 when the rule doesn't pipeline.
	pf    int
	pfSrc probeSrc
}

// kernelHook, when non-nil, observes the probe sources of every
// compiled kernel. Set only by tests (under their own lock) to assert a
// program actually exercises a given cursor kind; always nil in
// production.
var kernelHook func(rule *physical.Rule, srcs []probeSrc)

// newKernel compiles a rule into frames against this worker's replicas
// and the stratum's store. Probe sources, column types and index
// pointers are resolved once here, not per tuple.
func (w *worker) newKernel(r *physical.Rule) *kernel {
	k := &kernel{
		rule:   r,
		slots:  make([]storage.Value, r.NumSlots),
		frames: make([]kframe, len(r.Ops)),
		last:   len(r.Ops) - 1,
		outer:  r.Outer,
		pf:     -1,
	}
	if r.Outer != nil {
		k.outerTypes = w.run.types[r.Outer.Pred]
	}
	for i := range r.Ops {
		op := &r.Ops[i]
		f := &k.frames[i]
		f.kind = op.Kind
		f.prevJoin = r.PrevJoin[i]
		f.pc = &w.pc
		switch op.Kind {
		case physical.OpCond:
			f.cmp, f.l, f.r = op.Cmp, op.L, op.R
		case physical.OpLet:
			f.slot, f.expr, f.slotType = op.Slot, op.Expr, op.SlotType
		case physical.OpJoin, physical.OpNeg:
			acc := op.Access
			f.acc = acc
			f.colTypes = w.run.types[acc.Pred]
			f.key = make([]storage.Value, 0, len(acc.KeySrcs))
			if acc.PredIdx < 0 {
				// Base or earlier-stratum relation through the global
				// store (stratified negation always lands here).
				if p := w.run.store.prober(acc.Pred); p != nil {
					// Virtual relation: membership comes from the
					// registered oracle, not from stored tuples.
					// validateProbers pinned this to a fully-bound
					// negation, so the probe key is the whole tuple.
					f.src = srcProber
					f.prober = p
					f.pureKey = true
					continue
				}
				if acc.LookupIdx >= 0 {
					f.src = srcBaseLookup
					f.baseIdx = w.run.store.index(acc.Pred, acc.LookupIdx)
				} else {
					f.src = srcBaseScan
					f.scanRows = w.run.store.scan(acc.Pred)
				}
				f.pureKey = len(acc.EqCols) == 0 && len(acc.PostCols) == 0 && len(acc.Assign) == 0
				continue
			}
			rep := w.replicas[acc.PredIdx][acc.PathIdx]
			f.rep = rep
			switch {
			case !acc.AggProbe && acc.LookupIdx >= 0:
				f.src = srcIncLookup
			case !acc.AggProbe:
				f.src = srcSetScan
			case acc.PrefixLen == len(rep.keyOrder):
				f.src = srcAggGet
				f.row = make(storage.Tuple, rep.groupLen+1)
			case acc.PrefixLen == 0:
				f.src = srcAggScan
				f.row = make(storage.Tuple, rep.groupLen+1)
			default:
				f.src = srcAggPrefix
				f.row = make(storage.Tuple, rep.groupLen+1)
			}
		}
	}
	// Locate the pipeline frame: the first join, provided nothing but
	// pure filters precede it and its cursor is lookup-shaped. OpNeg
	// before the first join blocks pipelining (its existence probe is a
	// side walk the stages don't model).
	for i := range k.frames {
		f := &k.frames[i]
		if f.kind == physical.OpCond || f.kind == physical.OpLet {
			continue
		}
		if f.kind == physical.OpJoin &&
			((f.src == srcBaseLookup && f.baseIdx != nil) || f.src == srcIncLookup) {
			k.pf, k.pfSrc = i, f.src
		}
		break
	}
	if kernelHook != nil {
		var srcs []probeSrc
		for i := range k.frames {
			f := &k.frames[i]
			if f.kind == physical.OpJoin || f.kind == physical.OpNeg {
				srcs = append(srcs, f.src)
			}
		}
		kernelHook(r, srcs)
	}
	return k
}

// bindOuter applies the rule's outer access to the driving tuple,
// filling slots. It returns false when the tuple does not satisfy the
// access.
func (k *kernel) bindOuter(t storage.Tuple) bool {
	acc := k.outer
	slots := k.slots
	for _, eq := range acc.EqCols {
		if t[eq[0]] != t[eq[1]] {
			return false
		}
	}
	for i, col := range acc.PostCols {
		src := acc.PostSrcs[i]
		if !valueEq(t[col], k.outerTypes[col], src.Get(slots), src.Type) {
			return false
		}
	}
	for _, a := range acc.Assign {
		slots[a.Slot] = t[a.Col]
	}
	return true
}

// exec drives one bound outer tuple through the frame array, emitting a
// head derivation for every complete match. The single slot array
// backtracks naturally: deeper frames overwrite their slots per match,
// and PrevJoin jumps straight to the cursor that can produce the next
// candidate.
func (w *worker) exec(k *kernel) {
	if k.last < 0 {
		w.emit(k.rule, k.slots)
		return
	}
	w.execLoop(k, 0, true)
}

// execLoop is the frame walk itself, parameterized on the start
// position so the staged pipeline (pipeline.go) can resume a kernel at
// its pipeline frame with the cursor already resolved (entering=false
// advances the installed cursor instead of re-probing).
func (w *worker) execLoop(k *kernel, lvl int, entering bool) {
	slots := k.slots
	for {
		f := &k.frames[lvl]
		var ok bool
		if entering {
			switch f.kind {
			case physical.OpJoin:
				ok = f.enterJoin(slots)
			case physical.OpCond:
				ok = evalCompare(f.cmp, f.l.Eval(slots), f.l.Typ, f.r.Eval(slots), f.r.Typ)
			case physical.OpLet:
				slots[f.slot] = convertVal(f.expr.Eval(slots), f.expr.Typ, f.slotType)
				ok = true
			default: // OpNeg
				ok = !f.exists(slots)
			}
		} else {
			ok = f.advance(slots)
		}
		switch {
		case !ok:
			lvl = f.prevJoin
			if lvl < 0 {
				return
			}
			entering = false
		case lvl == k.last:
			w.emit(k.rule, slots)
			if f.kind != physical.OpJoin {
				lvl = f.prevJoin
				if lvl < 0 {
					return
				}
			}
			entering = false
		default:
			lvl++
			entering = true
		}
	}
}

// enterJoin builds the frame's probe key into its scratch buffer,
// repositions the cursor, and advances to the first match.
func (f *kframe) enterJoin(slots []storage.Value) bool {
	key := f.key[:0]
	for _, src := range f.acc.KeySrcs {
		key = append(key, src.Get(slots))
	}
	f.key = key
	switch f.src {
	case srcBaseLookup:
		idx := f.baseIdx
		if idx == nil {
			return false
		}
		h := storage.HashValues(key)
		f.keyOK = false
		switch f.bloom {
		case bloomGuard:
			f.pc.BloomChecks++
			if !idx.MayContain(h) {
				f.pc.BloomSkips++
				f.pos, f.end = 0, 0
				return false
			}
			f.pos, f.end = idx.ProbeRange(h, f.pc)
		case bloomWarm:
			f.pos, f.end = idx.ProbeRange(h, f.pc)
			f.bloomProbes++
			if f.pos < f.end {
				f.bloomHits++
			}
			if f.bloomProbes >= bloomWarmup {
				f.decideBloom()
			}
		default: // bloomPass: steady state, no guard bookkeeping
			f.pos, f.end = idx.ProbeRange(h, f.pc)
		}
	case srcBaseScan:
		f.pos, f.end = 0, len(f.scanRows)
	case srcSetScan:
		f.pos, f.end = 0, f.rep.set.Len()
	case srcIncLookup:
		f.inc = f.rep.incIdx[f.acc.LookupIdx].seek(key)
	case srcAggGet:
		f.aggOnce = true
	case srcAggScan:
		f.aggCur = f.rep.aggTree.First()
	case srcAggPrefix:
		f.aggCur = f.rep.aggTree.Seek(key)
	}
	return f.advance(slots)
}

// advance moves the frame's cursor to its next matching tuple, binding
// the frame's slots; it returns false when the cursor is exhausted.
func (f *kframe) advance(slots []storage.Value) bool {
	switch f.src {
	case srcBaseLookup:
		idx := f.baseIdx
		for f.pos < f.end {
			t := idx.RowAt(f.pos)
			f.pos++
			if f.keyOK {
				// Audited bucket, key already verified on an earlier
				// row: accept the row without touching its key words.
				f.pc.KeySkips++
			} else {
				f.pc.KeyCompares++
				if !idx.MatchesKey(t, f.key) {
					if idx.Keyed() {
						// Single-key bucket holding a different key (a
						// true 64-bit collision with the probe hash):
						// no row here can match.
						f.pos = f.end
						return false
					}
					continue
				}
				f.keyOK = idx.Keyed()
			}
			if f.match(t, slots) {
				return true
			}
		}
		return false
	case srcBaseScan:
		for f.pos < f.end {
			t := f.scanRows[f.pos]
			f.pos++
			if f.match(t, slots) {
				return true
			}
		}
		return false
	case srcSetScan:
		set := f.rep.set
		for f.pos < f.end {
			t := set.At(f.pos)
			f.pos++
			if f.match(t, slots) {
				return true
			}
		}
		return false
	case srcIncLookup:
		for {
			t, ok := f.inc.next(f.key, f.pc)
			if !ok {
				return false
			}
			if f.match(t, slots) {
				return true
			}
		}
	case srcAggGet:
		if !f.aggOnce {
			return false
		}
		f.aggOnce = false
		v, ok := f.rep.aggTree.Get(f.key)
		if !ok {
			return false
		}
		f.fillRow(f.key, v)
		return f.match(f.row, slots)
	default: // srcAggScan, srcAggPrefix
		for f.aggCur.Valid() {
			gk := f.aggCur.Key()
			v := f.aggCur.Val()
			f.aggCur.Next()
			if f.src == srcAggPrefix && !f.rep.aggTree.HasPrefix(gk, f.key) {
				// Keys are ordered: once the prefix stops matching the
				// range is over.
				return false
			}
			f.fillRow(gk, v)
			if f.match(f.row, slots) {
				return true
			}
		}
		return false
	}
}

// fillRow materializes an aggregate (group..., value) row in schema
// order into the frame's reusable buffer.
func (f *kframe) fillRow(key storage.Tuple, v storage.Value) {
	rep := f.rep
	for i, col := range rep.keyOrder {
		f.row[col] = key[i]
	}
	f.row[rep.groupLen] = v
}

// match applies the access's intra-atom equalities, post-checks and
// assignments to a candidate tuple. For negation frames Assign is nil,
// so match doubles as the anti-join candidate test.
func (f *kframe) match(t storage.Tuple, slots []storage.Value) bool {
	acc := f.acc
	for _, eq := range acc.EqCols {
		if t[eq[0]] != t[eq[1]] {
			return false
		}
	}
	for i, col := range acc.PostCols {
		src := acc.PostSrcs[i]
		if !valueEq(t[col], f.colTypes[col], src.Get(slots), src.Type) {
			return false
		}
	}
	for _, a := range acc.Assign {
		slots[a.Slot] = t[a.Col]
	}
	return true
}

// exists is the anti-join probe (stratified negation): true when any
// tuple matches the frame's key and post-checks.
func (f *kframe) exists(slots []storage.Value) bool {
	key := f.key[:0]
	for _, src := range f.acc.KeySrcs {
		key = append(key, src.Get(slots))
	}
	f.key = key
	if f.src == srcProber {
		// Virtual relation: the key is the full tuple in schema order
		// (validated at run start); no Bloom, no index — one oracle
		// call. The buffer is reused, so the oracle must not retain it.
		return f.prober.ContainsTuple(storage.Tuple(key))
	}
	if f.src == srcBaseLookup {
		idx := f.baseIdx
		if idx == nil {
			return false
		}
		h := storage.HashValues(key)
		if f.pureKey {
			return idx.ContainsProbe(h, key, f.pc)
		}
		start, end := idx.ProbeRange(h, f.pc)
		keyOK := false
		for r := start; r < end; r++ {
			t := idx.RowAt(r)
			if keyOK {
				f.pc.KeySkips++
			} else {
				f.pc.KeyCompares++
				if !idx.MatchesKey(t, key) {
					if idx.Keyed() {
						return false
					}
					continue
				}
				keyOK = idx.Keyed()
			}
			if f.match(t, slots) {
				return true
			}
		}
		return false
	}
	for _, t := range f.scanRows {
		if f.match(t, slots) {
			return true
		}
	}
	return false
}
