package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/prefetch"
)

// HashIndex is an equi-join index over a fixed tuple set: it maps the
// hash of the key columns to the matching tuples. Base relations are
// indexed once per partition before evaluation begins (Algorithm 1,
// line 3) and never mutated afterwards, so the index is built bulk,
// read-only, and probed concurrently without synchronization.
//
// The layout is flat and pointer-free. All rows live in one contiguous
// Value arena in bucket order (row r occupies
// arena[r*width:(r+1)*width]), and an open-addressed slot directory
// maps a key hash to its [start, start+count) row range. The directory
// is split into one power-of-two region per build partition: a probe
// selects the region with the low hash bits and linearly probes inside
// it with the next bits, so partitions build independently (and in
// parallel) while probes stay two array reads plus a short linear
// scan. Neither the directory (plain uint64/uint32 slots) nor the
// arena (Value is a uint64) contains pointers, so a resident index
// adds nothing to GC scan work.
//
// Three memory-level-parallelism structures ride beside the directory:
//
//   - A Swiss-table-style tag lane: one byte per slot holding the top
//     hash bits (0 = empty). The linear probe scans the byte lane — 64
//     candidates per cache line instead of 4 — and loads the 16-byte
//     slot only on a tag match, so collision slots are rejected with a
//     one-byte compare.
//   - A build-time single-key audit: the scatter pass verifies that
//     every bucket's rows agree on the key columns (64-bit hash
//     collisions between *stored* keys are detected, not assumed
//     away). On an audited index a probe full-key-compares only the
//     bucket's first row; every further row is accepted without
//     touching its key words.
//   - A blocked Bloom filter over the distinct key hashes (bloom.go),
//     consulted by miss-heavy join probes before the directory walk.
type HashIndex struct {
	keyCols []int
	width   int
	n       int
	// pMask/pShift split the hash: low bits pick the region, the rest
	// seed the linear probe inside it.
	pMask  uint64
	pShift uint8
	dirs   [][]idxSlot
	// tags[p][i] mirrors dirs[p][i]: 0 for an empty slot, otherwise
	// tagOf(slot.hash).
	tags [][]uint8
	// keyed reports the build-time audit passed: every bucket holds a
	// single distinct key, so one verified row vouches for the rest.
	keyed bool
	// distinct is the number of distinct key values (= occupied slots),
	// captured for free during the counting pass; the planner's cost
	// model reads it via DistinctKeys.
	distinct int
	arena    []Value

	// Blocked Bloom filter over distinct key hashes (see bloom.go).
	bloom     []uint64
	bloomMask uint64
}

// idxSlot is one directory entry: a distinct key hash and its
// bucket-contiguous row range. count == 0 marks an empty slot.
type idxSlot struct {
	hash  uint64
	start uint32
	count uint32
}

// tagOf compresses a key hash into its one-byte lane tag: the top seven
// hash bits with the high bit forced on, so an occupied slot's tag is
// never 0 (the empty marker). The top bits are disjoint from both the
// partition bits (low) and the in-region probe bits (above pShift), so
// tag equality is nearly independent of slot placement.
func tagOf(h uint64) uint8 { return uint8(h>>56) | 0x80 }

// TagOf exposes the tag function for sibling probe structures (the
// engine's incremental join indexes keep the same one-byte lane beside
// their cached hashes).
func TagOf(h uint64) uint8 { return tagOf(h) }

// nextPow2 returns the smallest power of two >= n (minimum 2).
func nextPow2(n int) int {
	if n < 2 {
		return 2
	}
	return 1 << bits.Len(uint(n-1))
}

// NewHashIndex builds an index over tuples on the given key columns
// with the two-pass counting build: hash every tuple, find-or-insert
// the hash into the slot directory counting bucket sizes, prefix-sum
// the counts into bucket offsets, then scatter each tuple's words into
// its bucket's arena range. No per-bucket allocations, no map.
func NewHashIndex(tuples []Tuple, keyCols []int) *HashIndex {
	idx := &HashIndex{keyCols: keyCols, n: len(tuples), keyed: true}
	if idx.n == 0 {
		return idx
	}
	idx.width = len(tuples[0])
	hs := make([]uint64, idx.n)
	for i, t := range tuples {
		hs[i] = t.HashOn(keyCols)
	}
	idx.arena = make([]Value, idx.n*idx.width)
	idx.bloom = make([]uint64, bloomBlocks(idx.n, 1)*bloomBlockWords)
	idx.bloomMask = uint64(len(idx.bloom)/bloomBlockWords - 1)
	region, tags, keyed, distinct := buildRegion(tuples, idx.width, keyCols, 0, hs, nil, 0, idx.arena, idx.bloom, idx.bloomMask)
	idx.dirs = [][]idxSlot{region}
	idx.tags = [][]uint8{tags}
	idx.keyed = keyed
	idx.distinct = distinct
	return idx
}

// DistinctKeys returns the number of distinct key-column values in the
// indexed relation, counted exactly during the build's counting pass.
func (idx *HashIndex) DistinctKeys() int { return idx.distinct }

// buildRegion groups one partition's entries into buckets: an
// open-addressed slot region over the partition's distinct key hashes
// (plus its byte tag lane), the rows scattered bucket-contiguously into
// arena[rowBase*width:], the partition's distinct hashes added to the
// shared Bloom filter, and the single-key audit over the scattered
// buckets. hs lists the entries' key hashes; rows maps entries to tuple
// ordinals (nil means the identity, i.e. the whole relation in one
// partition). The three passes are count → prefix-sum → scatter; the
// scatter reuses each slot's start as its write cursor and the final
// fixup pass rewinds it, so the build needs no side arrays.
func buildRegion(tuples []Tuple, width int, keyCols []int, pShift uint8, hs []uint64, rows []uint32, rowBase int, arena []Value, bloom []uint64, bloomMask uint64) ([]idxSlot, []uint8, bool, int) {
	k := len(hs)
	if k == 0 {
		return nil, nil, true, 0
	}
	region := make([]idxSlot, nextPow2(2*k))
	mask := uint64(len(region) - 1)
	distinct := 0
	for _, h := range hs {
		i := (h >> pShift) & mask
		for {
			s := &region[i]
			if s.count == 0 {
				s.hash = h
				s.count = 1
				distinct++
				bloomAdd(bloom, bloomMask, h)
				break
			}
			if s.hash == h {
				s.count++
				break
			}
			i = (i + 1) & mask
		}
	}
	// Duplicate-heavy keys leave the region mostly empty; rebuilding at
	// the distinct-count size keeps probe scans short and memory
	// proportional to buckets, not rows.
	if small := nextPow2(2 * distinct); small < len(region)/4 {
		old := region
		region = make([]idxSlot, small)
		mask = uint64(len(region) - 1)
		for _, s := range old {
			if s.count == 0 {
				continue
			}
			i := (s.hash >> pShift) & mask
			for region[i].count != 0 {
				i = (i + 1) & mask
			}
			region[i] = s
		}
	}
	running := uint32(rowBase)
	for i := range region {
		if region[i].count != 0 {
			region[i].start = running
			running += region[i].count
		}
	}
	for j, h := range hs {
		i := (h >> pShift) & mask
		for region[i].hash != h || region[i].count == 0 {
			i = (i + 1) & mask
		}
		s := &region[i]
		r := int(s.start)
		s.start++
		t := tuples[j]
		if rows != nil {
			t = tuples[rows[j]]
		}
		copy(arena[r*width:(r+1)*width], t)
	}
	for i := range region {
		region[i].start -= region[i].count
	}
	// Tag lane: one byte per settled slot.
	tags := make([]uint8, len(region))
	for i := range region {
		if region[i].count != 0 {
			tags[i] = tagOf(region[i].hash)
		}
	}
	// Single-key audit: a bucket groups rows by 64-bit key hash, so rows
	// with *differing* key columns in one bucket are a true collision.
	// Verifying there is none lets probes compare only the first row of
	// a bucket; the remaining rows are accepted key-compare-free.
	keyed := true
audit:
	for i := range region {
		s := &region[i]
		if s.count < 2 {
			continue
		}
		base := arena[int(s.start)*width : (int(s.start)+1)*width]
		for r := int(s.start) + 1; r < int(s.start)+int(s.count); r++ {
			row := arena[r*width : (r+1)*width]
			for _, c := range keyCols {
				if row[c] != base[c] {
					keyed = false
					break audit
				}
			}
		}
	}
	return region, tags, keyed, distinct
}

// parallelBuildMin is the relation size below which the sharded build
// costs more in coordination than it saves; smaller relations build
// sequentially (still one per goroutine when several indexes are
// requested).
const parallelBuildMin = 8192

// BuildHashIndexes builds one index per lookup column set over the
// same tuples, using up to `workers` goroutines. Large relations use a
// sharded two-pass build: shards hash and count tuples per hash
// partition in parallel, the per-shard counts are stitched by prefix
// sums into disjoint scatter cursors, and each partition's bucket
// region then builds independently. The result is identical (including
// bucket order, which follows tuple order) to calling NewHashIndex per
// lookup. The Bloom filter's block count is at least the partition
// count, so phase D's concurrent bloomAdd calls land in
// partition-disjoint blocks.
func BuildHashIndexes(tuples []Tuple, lookups [][]int, workers int) []*HashIndex {
	out := make([]*HashIndex, len(lookups))
	if len(lookups) == 0 {
		return out
	}
	n := len(tuples)
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n < parallelBuildMin {
		runTasks(workers, len(lookups), func(l int) {
			out[l] = NewHashIndex(tuples, lookups[l])
		})
		return out
	}

	width := len(tuples[0])
	nShards := workers
	if nShards > n {
		nShards = n
	}
	nParts := pickPartitions(n, workers)
	pMask := uint64(nParts - 1)
	pShift := uint8(bits.Len(uint(nParts - 1)))
	shardLo := func(s int) int { return s * n / nShards }

	// Per-index build state, allocated up front so the phases below are
	// pure array passes.
	type buildState struct {
		idx *HashIndex
		// hs[i] is tuple i's key hash (phase A).
		hs []uint64
		// counts[s][p] is shard s's tuple count in hash partition p
		// (phase A), stitched into shard-disjoint scatter cursors by
		// the prefix sums of phase B.
		counts [][]uint32
		// partStart[p] is partition p's first entry/row ordinal.
		partStart []uint32
		// partH/partRow are the entries regrouped in partition order
		// (phase C): shard-major, so tuple order is preserved within
		// every partition.
		partH   []uint64
		partRow []uint32
		// kflags[p] is partition p's single-key audit result (phase D),
		// AND-combined into idx.keyed afterwards.
		kflags []bool
		// dcounts[p] is partition p's distinct key count (phase D),
		// summed into idx.distinct afterwards. Partitions split the key
		// hash space, so per-partition distincts add exactly.
		dcounts []int
	}
	states := make([]*buildState, len(lookups))
	for l, cols := range lookups {
		blocks := bloomBlocks(n, nParts)
		st := &buildState{
			idx: &HashIndex{
				keyCols:   cols,
				width:     width,
				n:         n,
				pMask:     pMask,
				pShift:    pShift,
				dirs:      make([][]idxSlot, nParts),
				tags:      make([][]uint8, nParts),
				arena:     make([]Value, n*width),
				bloom:     make([]uint64, blocks*bloomBlockWords),
				bloomMask: uint64(blocks - 1),
			},
			hs:        make([]uint64, n),
			counts:    make([][]uint32, nShards),
			partStart: make([]uint32, nParts+1),
			partH:     make([]uint64, n),
			partRow:   make([]uint32, n),
			kflags:    make([]bool, nParts),
			dcounts:   make([]int, nParts),
		}
		for s := range st.counts {
			st.counts[s] = make([]uint32, nParts)
		}
		states[l] = st
		out[l] = st.idx
	}

	// Phase A: hash and count, parallel over (index, shard).
	runTasks(workers, len(lookups)*nShards, func(task int) {
		st, s := states[task/nShards], task%nShards
		cols, counts := st.idx.keyCols, st.counts[s]
		for i, hi := shardLo(s), shardLo(s+1); i < hi; i++ {
			h := tuples[i].HashOn(cols)
			st.hs[i] = h
			counts[h&pMask]++
		}
	})

	// Phase B: stitch the per-shard counts — partition offsets first,
	// then each shard's private write cursor inside every partition.
	for _, st := range states {
		var run uint32
		for p := 0; p < nParts; p++ {
			st.partStart[p] = run
			for s := 0; s < nShards; s++ {
				c := st.counts[s][p]
				st.counts[s][p] = run
				run += c
			}
		}
		st.partStart[nParts] = run
	}

	// Phase C: scatter entries into partition order, parallel over
	// (index, shard); the stitched cursors make every write disjoint.
	runTasks(workers, len(lookups)*nShards, func(task int) {
		st, s := states[task/nShards], task%nShards
		cur := st.counts[s]
		for i, hi := shardLo(s), shardLo(s+1); i < hi; i++ {
			h := st.hs[i]
			o := cur[h&pMask]
			cur[h&pMask] = o + 1
			st.partH[o] = h
			st.partRow[o] = uint32(i)
		}
	})

	// Phase D: build every partition's bucket region, tag lane and
	// Bloom blocks, and scatter its rows, parallel over (index,
	// partition) — regions, tag lanes, arena row ranges and Bloom
	// blocks are all disjoint by construction.
	runTasks(workers, len(lookups)*nParts, func(task int) {
		st, p := states[task/nParts], task%nParts
		lo, hi := st.partStart[p], st.partStart[p+1]
		st.idx.dirs[p], st.idx.tags[p], st.kflags[p], st.dcounts[p] = buildRegion(tuples, width, st.idx.keyCols, pShift,
			st.partH[lo:hi], st.partRow[lo:hi], int(lo), st.idx.arena, st.idx.bloom, st.idx.bloomMask)
	})
	for _, st := range states {
		for _, d := range st.dcounts {
			st.idx.distinct += d
		}
		st.idx.keyed = true
		for _, ok := range st.kflags {
			if !ok {
				st.idx.keyed = false
				break
			}
		}
	}
	return out
}

// pickPartitions sizes the partition grid: at least the worker count
// (so phase D parallelizes), growing with the relation so regions stay
// cache-sized, capped to keep per-shard count arrays trivial.
func pickPartitions(n, workers int) int {
	p := nextPow2(workers)
	for p < 1024 && p*8192 < n {
		p <<= 1
	}
	return p
}

// runTasks executes fn(0..n-1) on up to `workers` goroutines pulling
// from a shared atomic cursor.
func runTasks(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// KeyCols returns the indexed columns.
func (idx *HashIndex) KeyCols() []int { return idx.keyCols }

// Len returns the number of indexed rows.
func (idx *HashIndex) Len() int { return idx.n }

// Keyed reports that the build-time audit proved every bucket holds one
// distinct key: after a probe verifies a bucket's first row, the
// remaining rows need no key compare.
func (idx *HashIndex) Keyed() bool { return idx.keyed }

// rangeOf returns the [start, end) row range of the bucket whose key
// hash is h (0,0 when absent). The linear probe walks the one-byte tag
// lane and loads the 16-byte slot only on a tag match — the uncounted
// twin of ProbeRange, kept separate so the generic Lookup/Contains API
// stays free of counter plumbing.
func (idx *HashIndex) rangeOf(h uint64) (int, int) {
	if idx.n == 0 {
		return 0, 0
	}
	p := h & idx.pMask
	region := idx.dirs[p]
	if len(region) == 0 {
		return 0, 0
	}
	tags := idx.tags[p]
	mask := uint64(len(region) - 1)
	tg := tagOf(h)
	i := (h >> idx.pShift) & mask
	for {
		t := tags[i]
		if t == 0 {
			return 0, 0
		}
		if t == tg {
			s := &region[i]
			if s.hash == h {
				return int(s.start), int(s.start) + int(s.count)
			}
		}
		i = (i + 1) & mask
	}
}

// rangeOfNoTag is the pre-tag-lane probe (full-hash compare at every
// occupied slot). It is the A/B baseline for the tag-filter
// microbenchmarks and the oracle the property tests compare the tagged
// probe against; production paths never call it.
func (idx *HashIndex) rangeOfNoTag(h uint64) (int, int) {
	if idx.n == 0 {
		return 0, 0
	}
	region := idx.dirs[h&idx.pMask]
	if len(region) == 0 {
		return 0, 0
	}
	mask := uint64(len(region) - 1)
	i := (h >> idx.pShift) & mask
	for {
		s := &region[i]
		if s.count == 0 {
			return 0, 0
		}
		if s.hash == h {
			return int(s.start), int(s.start) + int(s.count)
		}
		i = (i + 1) & mask
	}
}

// ProbeRange is rangeOf for callers that already hold the key hash and
// a counter bag: the kernel's join cursors hash a probe key exactly
// once (often a group ahead of the walk, see internal/engine's staged
// pipeline) and pass the hash down.
func (idx *HashIndex) ProbeRange(h uint64, pc *ProbeCounters) (int, int) {
	if idx.n == 0 {
		return 0, 0
	}
	p := h & idx.pMask
	region := idx.dirs[p]
	if len(region) == 0 {
		return 0, 0
	}
	tags := idx.tags[p]
	mask := uint64(len(region) - 1)
	tg := tagOf(h)
	i := (h >> idx.pShift) & mask
	// Counters accumulate in registers and flush once: the walk is the
	// hottest loop in the engine and a per-slot read-modify-write
	// through the pointer would cost as much as the tag check itself.
	var probes, rejects int64
	start, end := 0, 0
	for {
		t := tags[i]
		if t == 0 {
			break
		}
		probes++
		if t == tg {
			s := &region[i]
			if s.hash == h {
				start, end = int(s.start), int(s.start)+int(s.count)
				break
			}
		} else {
			rejects++
		}
		i = (i + 1) & mask
	}
	pc.TagProbes += probes
	pc.TagRejects += rejects
	return start, end
}

// PrefetchBucket hints the directory lines a ProbeRange(h) call will
// touch — the tag byte and its slot — into L1. Issued a probe group
// ahead of the walk so the loads overlap.
func (idx *HashIndex) PrefetchBucket(h uint64) {
	if idx.n == 0 {
		return
	}
	p := h & idx.pMask
	region := idx.dirs[p]
	if len(region) == 0 {
		return
	}
	mask := uint64(len(region) - 1)
	i := (h >> idx.pShift) & mask
	prefetch.T0(unsafe.Pointer(&idx.tags[p][i]))
	prefetch.T0(unsafe.Pointer(&region[i]))
}

// PrefetchRow hints row r's arena line into L1.
func (idx *HashIndex) PrefetchRow(r int) {
	prefetch.T0(unsafe.Pointer(&idx.arena[r*idx.width]))
}

// BucketRange returns the [start, end) row-ordinal range of key's
// bucket. Hash collisions may remain, so callers must still compare
// the key columns (see MatchesKey). It exists for cursor-driven
// executors that walk matches inline instead of re-entering a callback
// per tuple; rows are resolved with RowAt.
func (idx *HashIndex) BucketRange(key []Value) (int, int) {
	return idx.rangeOf(HashValues(key))
}

// RowAt returns the r-th indexed row as a view into the arena; the
// tuple aliases the index and must not be mutated.
func (idx *HashIndex) RowAt(r int) Tuple {
	off := r * idx.width
	return Tuple(idx.arena[off : off+idx.width : off+idx.width])
}

// MatchesKey reports whether t's key columns equal key.
func (idx *HashIndex) MatchesKey(t Tuple, key []Value) bool {
	for i, c := range idx.keyCols {
		if t[c] != key[i] {
			return false
		}
	}
	return true
}

// Lookup streams every tuple whose key columns equal key, in build
// order, until fn returns false.
func (idx *HashIndex) Lookup(key []Value, fn func(Tuple) bool) {
	start, end := idx.rangeOf(HashValues(key))
	for r := start; r < end; r++ {
		t := idx.RowAt(r)
		if idx.MatchesKey(t, key) && !fn(t) {
			return
		}
	}
}

// Contains reports whether any tuple's key columns equal key. It is
// the anti-join existence probe: a direct walk of the bucket's arena
// range, with no callback and no closure allocation at the call site.
func (idx *HashIndex) Contains(key []Value) bool {
	start, end := idx.rangeOf(HashValues(key))
	for r := start; r < end; r++ {
		if idx.MatchesKey(idx.RowAt(r), key) {
			return true
		}
	}
	return false
}

// ContainsProbe is Contains with a caller-supplied hash and counter
// bag. On an audited (Keyed) index one key compare against the
// bucket's first row settles the answer for the whole bucket.
func (idx *HashIndex) ContainsProbe(h uint64, key []Value, pc *ProbeCounters) bool {
	start, end := idx.ProbeRange(h, pc)
	if start >= end {
		return false
	}
	pc.KeyCompares++
	if idx.MatchesKey(idx.RowAt(start), key) {
		return true
	}
	if idx.keyed {
		// The bucket holds a single distinct key and it is not ours:
		// the rest of the rows cannot match either.
		pc.KeySkips += int64(end - start - 1)
		return false
	}
	for r := start + 1; r < end; r++ {
		pc.KeyCompares++
		if idx.MatchesKey(idx.RowAt(r), key) {
			return true
		}
	}
	return false
}

// LookupAll collects the matches for key into a fresh slice.
func (idx *HashIndex) LookupAll(key []Value) []Tuple {
	var out []Tuple
	idx.Lookup(key, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}
