package engine

import (
	"repro/internal/physical"
	"repro/internal/storage"
)

// Staged, group-prefetched probe pipeline (AMAC-style). A recursive
// join's inner loop is a chain of dependent cache misses: hash the
// delta tuple's key, load a directory line, load an arena row — each
// load waiting on the previous one, one probe at a time. The memory
// subsystem can serve many misses concurrently; a serial probe loop
// never asks it to.
//
// execBlock restructures the delta-block loop so G independent probe
// chains are in flight at once, in three stages over each group of G
// driving tuples:
//
//	stage 1  bind + filter + hash every tuple's probe key, and issue a
//	         prefetch for the directory line the hash selects;
//	stage 2  resolve every cursor against the (by now resident)
//	         directory and issue a prefetch for the first arena row /
//	         chain entry;
//	stage 3  run each member's full frame walk from its pre-resolved
//	         cursor.
//
// Only the rule's first join is staged — it is the probe the delta
// drives directly and by far the hottest; deeper joins run inside
// stage 3's walk as before. Correctness notes:
//
//   - Stages 1–2 keep no per-member slot state: later group members
//     clobber the kernel's shared slot array and key scratch, so stage
//     3 re-binds and re-filters each member (cheap: outer assigns plus
//     pre-join conds) before installing its resolved cursor. Only the
//     hash and cursor survive the stages, and neither depends on the
//     scratch.
//   - Cursors resolved in stage 2 stay valid across the merges stage 3
//     may trigger (self-drains / batch flushes between members): base
//     hash indexes are immutable, and an incIndex append/grow rewrites
//     chain links without dropping any entry reachable from a live
//     cursor position. A tuple merged after a member's cursor was
//     resolved is simply not seen by that member — it entered the
//     replica as a delta and semi-naive evaluation re-derives through
//     it when that delta is processed.
//   - The stage buffer is a fixed worker-owned array (maxProbeGroup),
//     so the steady state allocates nothing.
type probeStage struct {
	t        storage.Tuple
	h        uint64
	pos, end int
	inc      incCursor
	skip     bool
}

// maxProbeGroup bounds Options.ProbeGroup; the per-worker stage buffer
// is this fixed size. 32 chains already exceed what one core's miss
// queue sustains, so larger groups only cool the prefetched lines.
const maxProbeGroup = 32

// pipelineMinRows is the adaptive gate for a defaulted ProbeGroup: the
// staged pipeline engages only when the probed structure holds at
// least this many rows. While the directory, tag lane and arena sit in
// the cache hierarchy, every prefetch is a no-op the core still has to
// issue and the double bind (stages 1 and 3 both run prepare) is pure
// overhead — measured 5-20% slower than the serial walk on LLC-resident
// indexes. At 512K rows the slots, tags and arena together pass ~25MB,
// past the last-level cache of typical server parts, and the probe
// stream becomes the DRAM-latency-bound chain of dependent misses the
// pipeline exists to overlap. The gate errs toward serial: staging a
// cached index costs real time, while walking an oversized one serially
// only forfeits overlap. An explicit Options.ProbeGroup bypasses the
// gate (benchmarks, tests, hosts with small caches).
const pipelineMinRows = 1 << 19

// probeHot reports whether the kernel's pipeline frame currently
// probes a structure large enough to be worth staging (or the run
// pinned the pipeline on). Incremental indexes grow during evaluation,
// so the answer is re-checked per block.
func (w *worker) probeHot(k *kernel) bool {
	if w.run.opts.probeGroupPinned {
		return true
	}
	pf := &k.frames[k.pf]
	if k.pfSrc == srcBaseLookup {
		return pf.baseIdx.Len() >= pipelineMinRows
	}
	return len(pf.rep.incIdx[pf.acc.LookupIdx].ids) >= pipelineMinRows
}

// prepare binds the driving tuple and runs the frames ahead of the
// pipeline join — pure filters (conds) and lets — then builds that
// join's probe key into its scratch. It is the re-runnable prefix of
// exec: deterministic in t, touching only outer-bound slots.
func (k *kernel) prepare(t storage.Tuple) bool {
	if !k.bindOuter(t) {
		return false
	}
	slots := k.slots
	for i := 0; i < k.pf; i++ {
		f := &k.frames[i]
		if f.kind == physical.OpCond {
			if !evalCompare(f.cmp, f.l.Eval(slots), f.l.Typ, f.r.Eval(slots), f.r.Typ) {
				return false
			}
		} else { // OpLet: pf only covers cond/let prefixes
			slots[f.slot] = convertVal(f.expr.Eval(slots), f.expr.Typ, f.slotType)
		}
	}
	f := &k.frames[k.pf]
	key := f.key[:0]
	for _, src := range f.acc.KeySrcs {
		key = append(key, src.Get(slots))
	}
	f.key = key
	return true
}

// drainChecks runs the between-executions housekeeping: early self
// drains and capped batch flushes. Legal only when no kernel cursor is
// live (see selfDrainWords) — execBlock calls it after each member's
// walk completes, never mid-stage.
func (w *worker) drainChecks() {
	if len(w.selfWords) >= selfDrainWords {
		w.drainSelf()
	}
	if len(w.flushPending) > 0 {
		w.flushPendingBatches()
	}
}

// execBlock drives a block of delta tuples through one kernel. Rules
// whose first join is lookup-shaped go through the staged pipeline;
// everything else (scan-outer rules, aggregate probes, G=1) falls back
// to the serial per-tuple loop.
func (w *worker) execBlock(k *kernel, block []storage.Tuple) {
	g := w.probeGroup
	if k.pf < 0 || g <= 1 || !w.probeHot(k) {
		for _, t := range block {
			if k.bindOuter(t) {
				w.exec(k)
			}
			w.drainChecks()
		}
		return
	}
	pf := &k.frames[k.pf]
	for lo := 0; lo < len(block); lo += g {
		hi := lo + g
		if hi > len(block) {
			hi = len(block)
		}
		// Stage 1: hash the group's probe keys, prefetch directory
		// lines. Members failing the outer bind or a pre-join cond
		// drop out here.
		ns := 0
		if k.pfSrc == srcBaseLookup {
			idx := pf.baseIdx
			for _, t := range block[lo:hi] {
				if !k.prepare(t) {
					continue
				}
				st := &w.stages[ns]
				ns++
				st.t = t
				st.h = storage.HashValues(pf.key)
				st.skip = false
				idx.PrefetchBucket(st.h)
			}
		} else {
			ix := pf.rep.incIdx[pf.acc.LookupIdx]
			for _, t := range block[lo:hi] {
				if !k.prepare(t) {
					continue
				}
				st := &w.stages[ns]
				ns++
				st.t = t
				st.h = storage.HashValues(pf.key)
				st.skip = false
				ix.prefetchHead(st.h)
			}
		}
		// Stage 2: resolve cursors against the prefetched directory,
		// prefetch the first row each walk will read. Empty buckets drop
		// out (the pipeline frame is the rule's first join, so an empty
		// cursor means the member derives nothing).
		if k.pfSrc == srcBaseLookup {
			idx := pf.baseIdx
			for i := 0; i < ns; i++ {
				st := &w.stages[i]
				st.pos, st.end = idx.ProbeRange(st.h, pf.pc)
				if st.pos >= st.end {
					st.skip = true
					continue
				}
				idx.PrefetchRow(st.pos)
			}
		} else {
			ix := pf.rep.incIdx[pf.acc.LookupIdx]
			for i := 0; i < ns; i++ {
				st := &w.stages[i]
				st.inc = ix.seekHash(st.h)
				if st.inc.i < 0 {
					st.skip = true
					continue
				}
				ix.prefetchEntry(st.inc.i)
			}
		}
		// Stage 3: re-prepare each surviving member (the group clobbered
		// the shared scratch) and run its frame walk from the resolved
		// cursor.
		for i := 0; i < ns; i++ {
			st := &w.stages[i]
			if st.skip {
				continue
			}
			k.prepare(st.t)
			if k.pfSrc == srcBaseLookup {
				pf.pos, pf.end = st.pos, st.end
				pf.keyOK = false
			} else {
				pf.inc = st.inc
			}
			w.execLoop(k, k.pf, false)
			w.drainChecks()
		}
	}
}
