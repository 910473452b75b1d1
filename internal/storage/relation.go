package storage

import (
	"math"
	"unsafe"

	"repro/internal/prefetch"
)

// Relation is the common surface of the two tuple containers used during
// semi-naive evaluation: deduplicating set relations and keyed aggregate
// relations.
type Relation interface {
	// Schema returns the relation's typed shape.
	Schema() *Schema
	// Len reports the number of (distinct) tuples currently held.
	Len() int
	// Insert adds a tuple, reporting whether the relation changed.
	Insert(t Tuple) bool
	// Contains reports whether the tuple (for sets: exactly; for
	// aggregates: its group key with a value at least as good) is
	// already represented.
	Contains(t Tuple) bool
	// ForEach visits every current tuple until fn returns false.
	ForEach(fn func(Tuple) bool)
	// Snapshot returns the current tuples. The result must not be
	// mutated.
	Snapshot() []Tuple
}

// SetRelation is a deduplicating tuple set with insertion-ordered
// iteration. It backs recursive predicates with set semantics such as
// tc and sg.
//
// Layout: tuple words live in an append-only chunked arena, all at the
// schema's fixed width; views holds one 8-byte arena ref per distinct
// tuple, in insertion order; and membership is resolved through an
// open-addressed, power-of-two, insert-only hash table (linear probing,
// no tombstones) whose slots carry the stored tuple's full 64-bit hash
// inline, so probe collisions and duplicate confirmations resolve with
// one slot load before any tuple words are touched. Every hot array —
// refs, slots, and the word chunks themselves — is pointer-free, so a
// relation holding millions of tuples gives the garbage collector
// nothing to scan and append growth nothing to memclr beyond 8 bytes
// per tuple. Inserts copy the incoming tuple into the arena, so callers
// may reuse their buffers, and steady-state inserts perform no
// per-tuple allocation; tuple views handed out by At and InsertHashed
// are reconstructed slice headers into the arena, stable for the
// relation's lifetime.
//
// The slot table and the view list are sized together — the view list's
// capacity is the table's length, which the load factor keeps ahead of
// the tuple count — and both come from size-class pools: growth hands
// the outgrown pair back, and Release the final one, so a relation that
// lives for one stratum leaves its lookup structures to the next
// relation instead of the garbage collector. The arena is never pooled.
type SetRelation struct {
	schema *Schema
	width  int
	arena  tupleArena
	views  []arenaRef // insertion order; each names arena memory
	table  []setSlot  // open-addressed; idx < 0 = empty
	mask   uint64
}

// setSlot is one membership-table entry: the view index plus its cached
// full-tuple hash.
type setSlot struct {
	hash uint64
	idx  int32
}

const setMinTable = 16

// setTables and setViews recycle slot tables and view lists by size
// class (recycle.go).
var (
	setTables classPool[setSlot]
	setViews  classPool[arenaRef]
)

// NewSetRelation returns an empty set relation over the schema. All
// inserted tuples must have the schema's arity.
func NewSetRelation(schema *Schema) *SetRelation {
	return &SetRelation{
		schema: schema,
		width:  schema.Arity(),
		views:  setViews.get(setMinTable)[:0],
		table:  newSlotTable(setMinTable),
		mask:   setMinTable - 1,
	}
}

func newSlotTable(n int) []setSlot {
	t := setTables.get(n)
	for i := range t {
		t[i] = setSlot{idx: -1}
	}
	return t
}

// Release hands the slot table and the view list back to their pools.
// Tuple views already handed out (At, Snapshot, AppendTo) stay valid —
// they name the arena, which is not released — but the relation itself
// must not be used again.
func (r *SetRelation) Release() {
	setTables.put(r.table, setSlot{hash: ^uint64(0), idx: math.MaxInt32})
	setViews.put(r.views, arenaRef(^uint64(0)))
	r.table, r.views = nil, nil
}

// Schema implements Relation.
func (r *SetRelation) Schema() *Schema { return r.schema }

// Len implements Relation.
func (r *SetRelation) Len() int { return len(r.views) }

// Insert adds t if absent and reports whether it was new. The tuple is
// copied into the relation's arena, so the caller's buffer may be
// reused immediately.
func (r *SetRelation) Insert(t Tuple) bool {
	_, added := r.InsertHashed(t.Hash(), t)
	return added
}

// InsertHashed is Insert for callers that already know t's full-tuple
// hash (the engine computes it once in Distribute and ships it with the
// tuple). It returns the stable arena-backed view of the tuple — valid
// for the relation's lifetime — and whether the tuple was new.
func (r *SetRelation) InsertHashed(h uint64, t Tuple) (Tuple, bool) {
	slot := h & r.mask
	for {
		s := r.table[slot]
		if s.idx < 0 {
			break
		}
		if s.hash == h {
			if view := r.arena.tuple(r.views[s.idx], r.width); view.Equal(t) {
				return view, false
			}
		}
		slot = (slot + 1) & r.mask
	}
	block, ref := r.arena.alloc(r.width)
	copy(block, t)
	r.table[slot] = setSlot{hash: h, idx: int32(len(r.views))}
	r.views = append(r.views, ref)
	if uint64(len(r.views))*4 > uint64(len(r.table))*3 {
		r.grow()
	}
	return Tuple(block), true
}

// PrefetchSlot hints the membership-table line an InsertHashed(h, ...)
// or ContainsHashed(h, ...) call will probe first. The merge loops
// (internal/engine) issue it a fixed distance ahead of the walk: once
// the relation holds more than a few hundred thousand tuples the slot
// table outsizes L2 and the probe load is the merge path's dominant
// stall.
func (r *SetRelation) PrefetchSlot(h uint64) {
	prefetch.T0(unsafe.Pointer(&r.table[h&r.mask]))
}

// grow doubles the slot table, rehousing every entry by its cached hash
// (tuples are never re-hashed), and moves the views into a list of the
// new table's length.
func (r *SetRelation) grow() {
	table := newSlotTable(2 * len(r.table))
	mask := uint64(len(table) - 1)
	for _, s := range r.table {
		if s.idx < 0 {
			continue
		}
		slot := s.hash & mask
		for table[slot].idx >= 0 {
			slot = (slot + 1) & mask
		}
		table[slot] = s
	}
	views := setViews.get(len(table))[:len(r.views)]
	copy(views, r.views)
	r.Release() // the outgrown pair
	r.table, r.views = table, views
	r.mask = mask
}

// Contains implements Relation.
func (r *SetRelation) Contains(t Tuple) bool {
	return r.ContainsHashed(t.Hash(), t)
}

// ContainsHashed is Contains with a caller-supplied full-tuple hash.
func (r *SetRelation) ContainsHashed(h uint64, t Tuple) bool {
	slot := h & r.mask
	for {
		s := r.table[slot]
		if s.idx < 0 {
			return false
		}
		if s.hash == h && r.arena.tuple(r.views[s.idx], r.width).Equal(t) {
			return true
		}
		slot = (slot + 1) & r.mask
	}
}

// At returns the i-th inserted tuple as its stable arena view. The
// header is reconstructed from the packed ref — no allocation.
func (r *SetRelation) At(i int) Tuple { return r.arena.tuple(r.views[i], r.width) }

// ForEach implements Relation.
func (r *SetRelation) ForEach(fn func(Tuple) bool) {
	for _, ref := range r.views {
		if !fn(r.arena.tuple(ref, r.width)) {
			return
		}
	}
}

// Snapshot implements Relation. The returned tuples alias the
// relation's arena, whose chunks are never moved or reused: a snapshot
// taken at any point stays valid — same length, same contents — no
// matter how many inserts (including table growth and new arena
// chunks) happen afterwards. Callers must not mutate the tuples.
// Building the header slice allocates, so hot paths should iterate with
// Len/At or ForEach instead.
func (r *SetRelation) Snapshot() []Tuple {
	return r.AppendTo(make([]Tuple, 0, len(r.views)))
}

// AppendTo appends the Snapshot views, in insertion order, to dst and
// returns the extended slice, so that several relations can be
// collected into one presized slice.
func (r *SetRelation) AppendTo(dst []Tuple) []Tuple {
	for _, ref := range r.views {
		dst = append(dst, r.arena.tuple(ref, r.width))
	}
	return dst
}
