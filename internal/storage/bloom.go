package storage

import "math/bits"

// Blocked Bloom filter over an index's distinct key hashes, used as a
// join guard: a negative answer proves the key has no bucket, so
// miss-heavy join probes skip the directory walk (and its random cache
// lines) after touching exactly one 64-byte block.
//
// Layout: bloomBlockWords (8) uint64 words per block — one cache line —
// with the block selected by the hash's low bits and two bit positions
// inside the block drawn from disjoint middle bits. Low-bit block
// selection is deliberate: it is a superset of the directory's
// partition bits, so during the sharded parallel build every partition
// writes a disjoint set of blocks and phase D needs no synchronization.
const (
	bloomBlockWords = 8   // 512 bits, one cache line
	bloomBitsPerRow = 12  // sizing rule: ~12 bits per indexed row
	bloomBlockBits  = 512 // bloomBlockWords * 64
)

// bloomBlocks sizes the filter for n rows: ~bloomBitsPerRow bits each,
// rounded up to a power of two of cache-line blocks, and at least
// minBlocks (the partition count, so parallel builds stay write-
// disjoint).
func bloomBlocks(n, minBlocks int) int {
	b := nextPow2((n*bloomBitsPerRow + bloomBlockBits - 1) / bloomBlockBits)
	if b < minBlocks {
		b = minBlocks
	}
	return b
}

// bloomAdd sets the key hash's two bits in its block. Only called
// during builds; blocks touched by concurrent build tasks are disjoint
// by construction (see the layout comment above).
func bloomAdd(bloom []uint64, mask, h uint64) {
	base := (h & mask) * bloomBlockWords
	p1 := (h >> 16) & (bloomBlockBits - 1)
	p2 := (h >> 25) & (bloomBlockBits - 1)
	bloom[base+(p1>>6)] |= 1 << (p1 & 63)
	bloom[base+(p2>>6)] |= 1 << (p2 & 63)
}

// MayContain reports whether a key with hash h could be present in the
// index: false proves absence, true means "walk the directory". An
// index built without a filter (empty index) answers true.
func (idx *HashIndex) MayContain(h uint64) bool {
	if idx.bloom == nil {
		return true
	}
	base := (h & idx.bloomMask) * bloomBlockWords
	p1 := (h >> 16) & (bloomBlockBits - 1)
	p2 := (h >> 25) & (bloomBlockBits - 1)
	if idx.bloom[base+(p1>>6)]&(1<<(p1&63)) == 0 {
		return false
	}
	return idx.bloom[base+(p2>>6)]&(1<<(p2&63)) != 0
}

// BloomBits reports the filter's size in bits (0 when absent) — used by
// tests and the design docs' sizing table.
func (idx *HashIndex) BloomBits() int { return len(idx.bloom) * 64 }

// bloomFill reports the filter's set-bit fraction, the direct input to
// its false-positive rate ((fill)^2 for two probe bits). Test-only
// diagnostics.
func (idx *HashIndex) bloomFill() float64 {
	if len(idx.bloom) == 0 {
		return 0
	}
	set := 0
	for _, w := range idx.bloom {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(len(idx.bloom)*64)
}
