package storage

import (
	"math/rand"
	"testing"
)

// Property and fuzz coverage for the tagged directory: the byte tag
// lane and the single-key bucket audit are pure probe accelerations,
// so every counted probe entry point must agree with the map oracle —
// and with the untagged directory walk — on any build, including the
// degenerate shapes (zero rows, every row one key, adversarial
// same-bucket keys).

// oracleRows returns the oracle's bucket for key (nil when absent).
func oracleRows(m *mapIndex, key []Value) []Tuple {
	return m.lookupAll(key)
}

// checkProbeAgreement drives every probe surface over each distinct
// present key plus a batch of absent keys, comparing against the map
// oracle. It returns the counters accumulated over the present-key
// probes so callers can assert counting invariants.
func checkProbeAgreement(t *testing.T, tuples []Tuple, keyCols []int, idx *HashIndex) ProbeCounters {
	t.Helper()
	ref := newMapIndex(tuples, keyCols)
	var pc ProbeCounters
	seen := map[string]bool{}
	for _, tu := range tuples {
		mk := mapKey(tu, keyCols)
		if seen[mk] {
			continue
		}
		seen[mk] = true
		key := keyOf(tu, keyCols)
		h := HashValues(key)
		want := oracleRows(ref, key)

		if !idx.ContainsProbe(h, key, &pc) {
			t.Fatalf("ContainsProbe(%v) = false for present key", key)
		}
		start, end := idx.ProbeRange(h, &pc)
		ns, ne := idx.rangeOfNoTag(h)
		if start != ns || end != ne {
			t.Fatalf("key %v: tagged range [%d,%d) != untagged [%d,%d)", key, start, end, ns, ne)
		}
		// The bucket groups rows by full hash; filtering it on the key
		// columns must reproduce the oracle bucket in order. The walk
		// mirrors the engine's audited-bucket discipline — one verified
		// row vouches for the rest of a Keyed bucket — so the oracle
		// comparison also validates the audit's skip soundness.
		var got []Tuple
		keyVerified := false
		for r := start; r < end; r++ {
			row := idx.RowAt(r)
			matched := false
			if keyVerified {
				pc.KeySkips++
				matched = true
			} else {
				pc.KeyCompares++
				matched = idx.MatchesKey(row, key)
				if matched && idx.Keyed() {
					keyVerified = true
				}
			}
			if matched {
				got = append(got, row)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("key %v: %d rows, oracle %d", key, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("key %v row %d: %v vs oracle %v", key, i, got[i], want[i])
			}
		}
	}
	// Absent keys: tagged and untagged walks agree, and ContainsProbe
	// says no.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 256; i++ {
		key := make([]Value, len(keyCols))
		for j := range key {
			key[j] = IntVal(rng.Int63())
		}
		h := HashValues(key)
		want := len(oracleRows(ref, key)) > 0
		if got := idx.ContainsProbe(h, key, &pc); got != want {
			t.Fatalf("ContainsProbe(%v) = %v, oracle %v", key, got, want)
		}
		s1, e1 := idx.ProbeRange(h, &pc)
		s2, e2 := idx.rangeOfNoTag(h)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("absent key %v: tagged [%d,%d) != untagged [%d,%d)", key, s1, e1, s2, e2)
		}
	}
	return pc
}

func TestTaggedDirectoryProperties(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		width   int
		domain  int
		keyCols []int
	}{
		{"zero-rows", 0, 2, 4, []int{0}},
		{"one-row", 1, 2, 4, []int{0}},
		{"all-one-key", 400, 2, 1, []int{0}},
		{"dense-dups", 600, 3, 25, []int{0, 2}},
		{"sparse", 600, 2, 1 << 30, []int{0}},
		{"parallel-shape", parallelBuildMin * 2, 3, 300, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tuples := randTuples(tc.n, tc.width, tc.domain, 31)
			idx := NewHashIndex(tuples, tc.keyCols)
			pc := checkProbeAgreement(t, tuples, tc.keyCols, idx)
			if tc.n > 1 && !idx.Keyed() {
				// randTuples draws 64-bit hashes from far fewer than 2^32
				// keys; a collision-induced audit failure here is
				// astronomically unlikely, so treat it as a bug.
				t.Fatalf("single-key audit unexpectedly failed")
			}
			if tc.name == "all-one-key" && pc.KeySkips == 0 {
				t.Fatalf("audited one-key bucket produced no key-compare skips: %+v", pc)
			}
		})
	}
}

// TestTaggedDirectoryParallelBuild re-runs the agreement suite over the
// sharded parallel build, whose tag lanes and audit flags are
// assembled per partition.
func TestTaggedDirectoryParallelBuild(t *testing.T) {
	tuples := randTuples(parallelBuildMin*2, 3, 400, 17)
	for _, idx := range BuildHashIndexes(tuples, [][]int{{0}, {0, 2}}, 4) {
		pc := checkProbeAgreement(t, tuples, idx.KeyCols(), idx)
		if pc.KeySkips == 0 {
			t.Fatalf("duplicate-heavy parallel build produced no key skips: %+v", pc)
		}
		if !idx.Keyed() {
			t.Fatalf("parallel single-key audit unexpectedly failed")
		}
	}
}

// TestSingleKeyAuditDetectsCollision plants two distinct stored keys in
// one bucket (same full 64-bit hash would be needed; instead the audit
// must also catch same-slot distinct keys only when their full hashes
// collide — which we can't fabricate through the public API — so this
// test instead verifies the audit flag goes false when buckets are
// forged to violate it). It builds the index normally, then corrupts
// one bucket's arena rows and re-runs the audit logic indirectly via a
// fresh build over tuples crafted to share a bucket.
func TestSingleKeyAuditDetectsCollision(t *testing.T) {
	// Force a collision at the buildRegion level: hand it two entries
	// with identical key hashes but different key columns.
	tuples := []Tuple{
		{IntVal(1), IntVal(10)},
		{IntVal(2), IntVal(20)},
	}
	hs := []uint64{0xdeadbeef, 0xdeadbeef} // forged: same "hash", different keys
	arena := make([]Value, 4)
	region, tags, keyed, _ := buildRegion(tuples, 2, []int{0}, 0, hs, nil, 0, arena)
	if keyed {
		t.Fatalf("audit accepted a bucket holding two distinct keys")
	}
	if len(region) == 0 || len(tags) != len(region) {
		t.Fatalf("malformed region/tags: %d/%d", len(region), len(tags))
	}
	// The collided bucket must still hold both rows.
	n := 0
	for _, s := range region {
		n += int(s.count)
	}
	if n != 2 {
		t.Fatalf("collided bucket lost rows: %d", n)
	}
}

// TestBloomNoFalseNegatives checks that a large sparse build has no
// false negatives on the join probe path: under both the sequential
// and the sharded parallel build, ContainsProbe and ProbeRange find
// every present key.
func TestBloomNoFalseNegatives(t *testing.T) {
	tuples := randTuples(50_000, 2, 1<<40, 3)
	builds := map[string]*HashIndex{
		"sequential": NewHashIndex(tuples, []int{0}),
		"parallel":   BuildHashIndexes(tuples, [][]int{{0}}, 2)[0],
	}
	for name, idx := range builds {
		var pc ProbeCounters
		for _, tu := range tuples {
			key := keyOf(tu, []int{0})
			h := HashValues(key)
			if !idx.ContainsProbe(h, key, &pc) {
				t.Fatalf("%s: ContainsProbe false negative for %v", name, tu)
			}
			if start, end := idx.ProbeRange(h, &pc); start >= end {
				t.Fatalf("%s: ProbeRange false negative for %v", name, tu)
			}
		}
	}
}

// FuzzTaggedDirectory feeds arbitrary byte strings decoded into small
// tuple sets through the full agreement check, so the corpus can find
// directory shapes (collision runs, wrap-around probes, shrink-rebuild
// boundaries) that the fixed cases miss.
func FuzzTaggedDirectory(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(3), uint8(2))
	f.Add([]byte{255, 1, 255, 1}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, widthB, keyB uint8) {
		width := int(widthB)%3 + 1
		keyCols := make([]int, int(keyB)%width+1)
		for i := range keyCols {
			keyCols[i] = (int(keyB) + i) % width
		}
		var tuples []Tuple
		for i := 0; i+width <= len(data); i += width {
			tu := make(Tuple, width)
			for j := 0; j < width; j++ {
				tu[j] = IntVal(int64(data[i+j]) % 16) // small domain → heavy dups
			}
			tuples = append(tuples, tu)
		}
		idx := NewHashIndex(tuples, keyCols)
		checkProbeAgreement(t, tuples, keyCols, idx)
	})
}

// BenchmarkProbeTagAB is the tag-filter on/off A/B: the same probe
// stream through the tagged walk (ProbeRange) and the untagged
// full-hash walk it replaced (rangeOfNoTag).
func BenchmarkProbeTagAB(b *testing.B) {
	const n = 100_000
	tuples := randTuples(n, 2, n/4, 42)
	idx := NewHashIndex(tuples, []int{0})
	hashes := make([]uint64, 1024)
	for i := range hashes {
		hashes[i] = HashValues(keyOf(tuples[i*97%n], []int{0}))
	}
	b.Run("tagged", func(b *testing.B) {
		b.ReportAllocs()
		var pc ProbeCounters
		for i := 0; i < b.N; i++ {
			s, e := idx.ProbeRange(hashes[i%len(hashes)], &pc)
			if s >= e {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("untagged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, e := idx.rangeOfNoTag(hashes[i%len(hashes)])
			if s >= e {
				b.Fatal("missing key")
			}
		}
	})
}

// BenchmarkProbeMiss measures the miss path: absent keys walked
// through the tagged directory.
func BenchmarkProbeMiss(b *testing.B) {
	const n = 100_000
	tuples := randTuples(n, 2, 1<<40, 42)
	idx := NewHashIndex(tuples, []int{0})
	rng := rand.New(rand.NewSource(7))
	keys := make([][]Value, 1024)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []Value{IntVal(rng.Int63())} // effectively all absent
		hashes[i] = HashValues(keys[i])
	}
	var pc ProbeCounters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		idx.ContainsProbe(hashes[j], keys[j], &pc)
	}
}

func BenchmarkProbeCounted(b *testing.B) {
	// Counted vs uncounted probe on the same stream: the counter bag's
	// cost must be noise.
	const n = 100_000
	tuples := randTuples(n, 2, n/4, 42)
	idx := NewHashIndex(tuples, []int{0})
	keys := make([][]Value, 1024)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = keyOf(tuples[i*97%n], []int{0})
		hashes[i] = HashValues(keys[i])
	}
	b.Run("counted", func(b *testing.B) {
		var pc ProbeCounters
		for i := 0; i < b.N; i++ {
			j := i % len(keys)
			if !idx.ContainsProbe(hashes[j], keys[j], &pc) {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("uncounted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !idx.Contains(keys[i%len(keys)]) {
				b.Fatal("missing key")
			}
		}
	})
}
