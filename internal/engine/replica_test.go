package engine

import (
	"testing"

	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/storage"
)

func it(vs ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vs))
	for i, v := range vs {
		t[i] = storage.IntVal(v)
	}
	return t
}

// wireHash computes the wire hash the engine's Distribute step would
// ship with t: full-tuple hash for sets, group-prefix hash otherwise.
func wireHash(rep *replica, t storage.Tuple) uint64 {
	if rep.agg == storage.AggNone {
		return t.Hash()
	}
	return storage.HashValues(t[:rep.groupLen])
}

// merge is a test shim for mergeWire that derives the wire hash.
func merge(rep *replica, t storage.Tuple) bool {
	return rep.mergeWire(wireHash(rep, t), t)
}

// frameOf packages tuples as an exchange frame bound for rep.
func frameOf(rep *replica, tuples []storage.Tuple) *frame {
	width := len(tuples[0])
	f := &frame{width: int32(width), count: int32(len(tuples))}
	for _, tu := range tuples {
		f.hashes = append(f.hashes, wireHash(rep, tu))
		f.words = append(f.words, tu...)
	}
	return f
}

func TestExistCache(t *testing.T) {
	c := newExistCache(4, 2)
	k1 := it(1, 2)
	h1 := storage.HashValues(k1)
	if _, ok := c.get(h1, k1); ok {
		t.Fatal("empty cache hit")
	}
	c.put(h1, k1, storage.IntVal(9))
	if v, ok := c.get(h1, k1); !ok || v.Int() != 9 {
		t.Fatal("cache miss after put")
	}
	// Overwrite the same key.
	c.put(h1, k1, storage.IntVal(5))
	if v, _ := c.get(h1, k1); v.Int() != 5 {
		t.Fatal("overwrite failed")
	}
	// A colliding key evicts (direct-mapped).
	k2 := it(99, 98)
	h2 := h1 // force the same slot
	c.put(h2, k2, storage.IntVal(7))
	if _, ok := c.get(h1, k1); ok {
		t.Fatal("evicted key still hits")
	}
	if v, ok := c.get(h2, k2); !ok || v.Int() != 7 {
		t.Fatal("new key should hit")
	}
}

func TestIncIndex(t *testing.T) {
	schema := storage.NewSchema("p",
		storage.Column{Name: "a", Type: storage.TInt},
		storage.Column{Name: "b", Type: storage.TInt})
	set := storage.NewSetRelation(schema)
	ix := newIncIndex([]int{1}, set)
	for _, tu := range []storage.Tuple{it(1, 10), it(2, 10), it(3, 11)} {
		set.Insert(tu)
		ix.add(int32(set.Len() - 1))
	}
	var got []int64
	ix.lookup([]storage.Value{storage.IntVal(10)}, func(tu storage.Tuple) bool {
		got = append(got, tu[0].Int())
		return true
	})
	if len(got) != 2 {
		t.Fatalf("lookup(10) = %v", got)
	}
	n := 0
	ix.lookup([]storage.Value{storage.IntVal(10)}, func(storage.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatal("early stop ignored")
	}
	ix.lookup([]storage.Value{storage.IntVal(12)}, func(storage.Tuple) bool {
		t.Fatal("phantom match")
		return false
	})
}

// minPred builds a physical.Pred for a min-aggregated binary relation
// partitioned on column 0.
func minPred(t *testing.T) *physical.Pred {
	t.Helper()
	schema := storage.NewSchema("m",
		storage.Column{Name: "k", Type: storage.TInt},
		storage.Column{Name: "v", Type: storage.TInt})
	pp := &plan.PredPlan{
		Name: "m", Schema: schema, Agg: storage.AggMin, GroupLen: 1,
		Paths: [][]int{{0}},
	}
	return &physical.Pred{
		Plan:      pp,
		KeyTypes:  []storage.Type{storage.TInt, storage.TInt},
		KeyOrders: [][]int{{0}},
	}
}

func TestReplicaMinMerge(t *testing.T) {
	rep := newReplica(minPred(t), 0, &Options{Epsilon: 1e-9})
	rep.consume = true
	if !merge(rep, it(1, 10)) {
		t.Fatal("first merge should change")
	}
	if merge(rep, it(1, 12)) {
		t.Fatal("worse value should not change")
	}
	if !merge(rep, it(1, 5)) {
		t.Fatal("better value should change")
	}
	if rep.size() != 1 {
		t.Fatalf("size = %d", rep.size())
	}
	delta := rep.takeDelta()
	// Coalesced: one pending row for group 1 with the latest value 5.
	if len(delta) != 1 || delta[0][1].Int() != 5 {
		t.Fatalf("delta = %v", delta)
	}
	rows := rep.appendTo(nil)
	if len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Int() != 5 {
		t.Fatalf("appendTo = %v", rows)
	}
}

func TestReplicaMinMergeWithoutCache(t *testing.T) {
	rep := newReplica(minPred(t), 0, &Options{NoExistCache: true, Epsilon: 1e-9})
	rep.consume = true
	merge(rep, it(1, 10))
	if merge(rep, it(1, 10)) {
		t.Fatal("equal value should not change")
	}
	if !merge(rep, it(1, 3)) {
		t.Fatal("better value should change")
	}
}

func TestReplicaScanMergeMatchesIndexed(t *testing.T) {
	fast := newReplica(minPred(t), 0, &Options{Epsilon: 1e-9})
	slow := newReplica(minPred(t), 0, &Options{NoIndexAgg: true, Epsilon: 1e-9})
	fast.consume, slow.consume = true, true
	batches := [][]storage.Tuple{
		{it(1, 9), it(2, 5), it(1, 7)},
		{it(3, 1), it(2, 6), it(1, 7)},
		{it(1, 2), it(4, 4)},
	}
	for _, b := range batches {
		fast.mergeFrame(frameOf(fast, b))
		slow.mergeFrame(frameOf(slow, b))
	}
	f, s := fast.appendTo(nil), slow.appendTo(nil)
	if len(f) != len(s) {
		t.Fatalf("sizes differ: %d vs %d", len(f), len(s))
	}
	fm := map[int64]int64{}
	for _, r := range f {
		fm[r[0].Int()] = r[1].Int()
	}
	for _, r := range s {
		if fm[r[0].Int()] != r[1].Int() {
			t.Fatalf("group %d: %d vs %d", r[0].Int(), fm[r[0].Int()], r[1].Int())
		}
	}
	if fm[1] != 2 || fm[2] != 5 || fm[3] != 1 || fm[4] != 4 {
		t.Fatalf("wrong minima: %v", fm)
	}
}

func setPred(t *testing.T) *physical.Pred {
	t.Helper()
	schema := storage.NewSchema("s",
		storage.Column{Name: "a", Type: storage.TInt},
		storage.Column{Name: "b", Type: storage.TInt})
	pp := &plan.PredPlan{
		Name: "s", Schema: schema, Agg: storage.AggNone, GroupLen: 2,
		Paths: [][]int{{0, 1}},
	}
	return &physical.Pred{
		Plan:      pp,
		KeyTypes:  []storage.Type{storage.TInt, storage.TInt},
		KeyOrders: [][]int{{0, 1}},
		Lookups:   [][]int{{0}},
	}
}

func TestReplicaSetMergeAndIndex(t *testing.T) {
	rep := newReplica(setPred(t), 0, &Options{})
	rep.consume = true
	if !merge(rep, it(1, 2)) || merge(rep, it(1, 2)) {
		t.Fatal("set dedup broken")
	}
	merge(rep, it(1, 3))
	var matches int
	rep.incIdx[0].lookup([]storage.Value{storage.IntVal(1)}, func(storage.Tuple) bool {
		matches++
		return true
	})
	if matches != 2 {
		t.Fatalf("inc index matches = %d", matches)
	}
	if len(rep.takeDelta()) != 2 {
		t.Fatal("set deltas missing")
	}
}

// batchAdd is a test shim for outBatch.add that derives the wire hash
// (full tuple for sets, group prefix otherwise).
func batchAdd(b *outBatch, tu storage.Tuple) int {
	if b.agg == storage.AggNone {
		return b.add(tu.Hash(), tu)
	}
	return b.add(storage.HashValues(tu[:b.groupLen]), tu)
}

func TestOutBatchPartialAggregation(t *testing.T) {
	// Min batch keeps the best value per group.
	b := newOutBatch(minPred(t), true, nil)
	batchAdd(b, it(1, 9))
	batchAdd(b, it(1, 4))
	batchAdd(b, it(1, 7))
	batchAdd(b, it(2, 3))
	if b.count != 2 {
		t.Fatalf("batch size = %d, want 2", b.count)
	}
	got := map[int64]int64{}
	for i := 0; i < b.count; i++ {
		tu := b.row(i)
		got[tu[0].Int()] = tu[1].Int()
	}
	if got[1] != 4 || got[2] != 3 {
		t.Fatalf("partial agg = %v", got)
	}
	// reset() clears without reallocating.
	b.reset()
	if b.count != 0 {
		t.Fatal("reset did not clear")
	}
	batchAdd(b, it(1, 8))
	if b.count != 1 {
		t.Fatalf("after reset: %d", b.count)
	}
	if tu := b.row(0); tu[0].Int() != 1 || tu[1].Int() != 8 {
		t.Fatalf("after reset row = %v", b.row(0))
	}
}

func TestOutBatchSetDedup(t *testing.T) {
	b := newOutBatch(setPred(t), true, nil)
	batchAdd(b, it(1, 2))
	batchAdd(b, it(1, 2))
	batchAdd(b, it(2, 1))
	if b.count != 2 {
		t.Fatalf("dedup failed: %d", b.count)
	}
}

func TestOutBatchWithoutPartialAgg(t *testing.T) {
	b := newOutBatch(minPred(t), false, nil)
	batchAdd(b, it(1, 9))
	batchAdd(b, it(1, 4))
	if b.count != 2 {
		t.Fatal("non-partial batch must keep everything")
	}
}

// TestOutBatchDedupGrowth exercises slot-table growth and generation
// reuse: far more distinct tuples than the initial dedup table, twice.
func TestOutBatchDedupGrowth(t *testing.T) {
	b := newOutBatch(setPred(t), true, nil)
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 500; i++ {
			batchAdd(b, it(i, i+1))
			batchAdd(b, it(i, i+1)) // duplicate must not count
		}
		if b.count != 500 {
			t.Fatalf("round %d: count = %d, want 500", round, b.count)
		}
		seen := map[[2]int64]bool{}
		for i := 0; i < b.count; i++ {
			tu := b.row(i)
			seen[[2]int64{tu[0].Int(), tu[1].Int()}] = true
		}
		if len(seen) != 500 {
			t.Fatalf("round %d: %d distinct rows", round, len(seen))
		}
		b.reset()
	}
}
