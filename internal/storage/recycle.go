package storage

import (
	"math/bits"
	"sync"
	"unsafe"
)

// RecycleMaxBytes is the size cap of run scratch reuse: a buffer over it
// is dropped for the garbage collector instead of being pooled. Here it
// bounds one set relation's slot table and view list; the engine applies
// it to the scratch one worker hands back. DESIGN.md ("Run scratch
// reuse") has the measurement behind the value: a bound point query's
// largest per-worker scratch is a few hundred KiB, while a dense
// transitive closure grows slot tables and frame sets of tens of MiB
// that a pool would otherwise pin for the next small query.
const RecycleMaxBytes = 1 << 20

// PoisonReleased makes every recycling path overwrite a buffer as it is
// handed back, so that a read through memory a relation, result or
// later stratum still aliased shows up as wrong output rather than
// passing by luck. Tests only; never set while a run is in flight.
var PoisonReleased bool

// classPool recycles power-of-two-length slices by size class. A class
// pool stores a pointer to the slice's first element — an interface
// holding a pointer needs no boxed header, so put does not allocate —
// and get rebuilds the slice from the class's length. Slices over
// RecycleMaxBytes are never pooled.
type classPool[T any] struct {
	classes [bits.UintSize]sync.Pool
}

// get returns a slice of length n, a power of two, with unspecified
// contents.
func (p *classPool[T]) get(n int) []T {
	c := bits.TrailingZeros(uint(n))
	if v := p.classes[c].Get(); v != nil {
		return unsafe.Slice(v.(*T), n)
	}
	return make([]T, n)
}

// put hands s back for reuse; the caller must not touch it afterwards.
// poison is written over every element under PoisonReleased.
func (p *classPool[T]) put(s []T, poison T) {
	n := cap(s)
	if n == 0 || n&(n-1) != 0 || uintptr(n)*unsafe.Sizeof(poison) > RecycleMaxBytes {
		return
	}
	s = s[:n]
	if PoisonReleased {
		for i := range s {
			s[i] = poison
		}
	}
	p.classes[bits.TrailingZeros(uint(n))].Put(&s[0])
}
