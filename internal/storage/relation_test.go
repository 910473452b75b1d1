package storage

import (
	"testing"
	"testing/quick"
)

func pairSchema(name string) *Schema {
	return NewSchema(name, Column{"x", TInt}, Column{"y", TInt})
}

func TestSetRelationInsertDedup(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	if !r.Insert(Tuple{IntVal(1), IntVal(2)}) {
		t.Fatal("first insert should be new")
	}
	if r.Insert(Tuple{IntVal(1), IntVal(2)}) {
		t.Fatal("duplicate insert should report false")
	}
	if !r.Insert(Tuple{IntVal(2), IntVal(1)}) {
		t.Fatal("distinct tuple should be new")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestSetRelationContains(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	r.Insert(Tuple{IntVal(3), IntVal(4)})
	if !r.Contains(Tuple{IntVal(3), IntVal(4)}) {
		t.Error("inserted tuple should be contained")
	}
	if r.Contains(Tuple{IntVal(4), IntVal(3)}) {
		t.Error("reversed tuple should not be contained")
	}
}

func TestSetRelationInsertionOrderIteration(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	want := []int64{5, 1, 9, 3}
	for _, v := range want {
		r.Insert(Tuple{IntVal(v), IntVal(v)})
	}
	var got []int64
	r.ForEach(func(tu Tuple) bool {
		got = append(got, tu[0].Int())
		return true
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
}

func TestSetRelationForEachEarlyStop(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	for i := int64(0); i < 10; i++ {
		r.Insert(Tuple{IntVal(i), IntVal(i)})
	}
	n := 0
	r.ForEach(func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}

// Property: a set relation behaves exactly like a map keyed on the
// tuple contents.
func TestSetRelationMatchesMapModel(t *testing.T) {
	f := func(pairs [][2]int16) bool {
		r := NewSetRelation(pairSchema("m"))
		model := map[[2]int16]bool{}
		for _, p := range pairs {
			isNew := !model[p]
			model[p] = true
			got := r.Insert(Tuple{IntVal(int64(p[0])), IntVal(int64(p[1]))})
			if got != isNew {
				return false
			}
		}
		return r.Len() == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetRelationSnapshotStableAcrossGrowth is the aliasing regression
// test: a snapshot taken early must keep its contents (both the slice
// header and every tuple view) after the relation grows far past the
// capacity it had when the snapshot was taken.
func TestSetRelationSnapshotStableAcrossGrowth(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	for i := int64(0); i < 8; i++ {
		r.Insert(Tuple{IntVal(i), IntVal(i * 10)})
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(snap))
	}
	// Insert far past every internal capacity: the hash table regrows
	// multiple times and the arena rolls over several chunks.
	for i := int64(8); i < 5000; i++ {
		r.Insert(Tuple{IntVal(i), IntVal(i * 10)})
	}
	if len(snap) != 8 {
		t.Fatalf("snapshot length changed to %d", len(snap))
	}
	for i, tu := range snap {
		if tu[0].Int() != int64(i) || tu[1].Int() != int64(i)*10 {
			t.Fatalf("snapshot[%d] = (%d,%d), want (%d,%d)",
				i, tu[0].Int(), tu[1].Int(), i, i*10)
		}
	}
	// Appending to the snapshot must not overwrite the relation's later
	// views (the slice is full-sliced on return).
	_ = append(snap, Tuple{IntVal(-1), IntVal(-1)})
	if tu := r.At(8); tu[0].Int() != 8 {
		t.Fatalf("append through snapshot clobbered views: %v", tu)
	}
}

// TestSetRelationReleaseRecycles: a released relation's slot tables and
// view lists, poisoned on the way back, serve the next relations of the
// same sizes, and neither the views the released relation handed out
// nor the new relations' contents notice.
func TestSetRelationReleaseRecycles(t *testing.T) {
	PoisonReleased = true
	defer func() { PoisonReleased = false }()
	const n = 3000
	old := NewSetRelation(pairSchema("tc"))
	for i := int64(0); i < n; i++ {
		old.Insert(Tuple{IntVal(i), IntVal(-i)})
	}
	snap := old.AppendTo(nil)
	old.Release()
	for round := int64(1); round <= 3; round++ {
		r := NewSetRelation(pairSchema("tc"))
		for i := int64(0); i < n; i++ {
			if !r.Insert(Tuple{IntVal(i), IntVal(round)}) {
				t.Fatalf("round %d: tuple %d reported present in a fresh relation", round, i)
			}
		}
		for i := int64(0); i < n; i++ {
			if !r.Contains(Tuple{IntVal(i), IntVal(round)}) || r.Contains(Tuple{IntVal(i), IntVal(-i)}) {
				t.Fatalf("round %d: membership of %d wrong after recycling", round, i)
			}
		}
		if r.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, r.Len(), n)
		}
		r.Release()
	}
	for i, tu := range snap {
		if tu[0].Int() != int64(i) || tu[1].Int() != -int64(i) {
			t.Fatalf("view %d of the released relation = %v", i, tu)
		}
	}
}

// TestSetRelationInsertCopies checks the copy-on-insert contract: the
// caller's buffer may be mutated and reused after Insert returns.
func TestSetRelationInsertCopies(t *testing.T) {
	r := NewSetRelation(pairSchema("tc"))
	buf := Tuple{IntVal(1), IntVal(2)}
	r.Insert(buf)
	buf[0], buf[1] = IntVal(7), IntVal(8)
	r.Insert(buf)
	if !r.Contains(Tuple{IntVal(1), IntVal(2)}) || !r.Contains(Tuple{IntVal(7), IntVal(8)}) {
		t.Fatal("Insert must copy the tuple out of the caller's buffer")
	}
}

func aggSchema(name string) *Schema {
	return NewSchema(name, Column{"k", TInt}, Column{"v", TInt})
}

func TestAggMinMerge(t *testing.T) {
	r := NewAggRelation(aggSchema("cc2"), AggMin)
	key := []Value{IntVal(7)}
	if ch, v := r.Merge(key, IntVal(5), 0); !ch || v.Int() != 5 {
		t.Fatalf("first merge = (%v,%d)", ch, v.Int())
	}
	if ch, _ := r.Merge(key, IntVal(9), 0); ch {
		t.Fatal("larger value must not change a min aggregate")
	}
	if ch, v := r.Merge(key, IntVal(2), 0); !ch || v.Int() != 2 {
		t.Fatalf("smaller value should win: (%v,%d)", ch, v.Int())
	}
	if got, _ := r.Get(key); got.Int() != 2 {
		t.Fatalf("Get = %d, want 2", got.Int())
	}
}

func TestAggMaxMerge(t *testing.T) {
	r := NewAggRelation(aggSchema("delivery"), AggMax)
	key := []Value{IntVal(1)}
	r.Merge(key, IntVal(5), 0)
	if ch, _ := r.Merge(key, IntVal(3), 0); ch {
		t.Fatal("smaller value must not change a max aggregate")
	}
	if ch, v := r.Merge(key, IntVal(8), 0); !ch || v.Int() != 8 {
		t.Fatal("larger value should win")
	}
}

func TestAggCountDistinctContributors(t *testing.T) {
	r := NewAggRelation(aggSchema("cnt"), AggCount)
	key := []Value{IntVal(1)}
	r.Merge(key, 0, IntVal(10))
	r.Merge(key, 0, IntVal(11))
	if ch, _ := r.Merge(key, 0, IntVal(10)); ch {
		t.Fatal("repeated contributor must not increase the count")
	}
	if v, _ := r.Get(key); v.Int() != 2 {
		t.Fatalf("count = %d, want 2", v.Int())
	}
}

func TestAggSumKeyedReplacement(t *testing.T) {
	r := NewAggRelation(aggSchema("rank"), AggSum)
	key := []Value{IntVal(1)}
	r.Merge(key, IntVal(10), IntVal(100))
	r.Merge(key, IntVal(5), IntVal(101))
	if v, _ := r.Get(key); v.Int() != 15 {
		t.Fatalf("sum = %d, want 15", v.Int())
	}
	// Contributor 100 revises its contribution from 10 to 3.
	if ch, v := r.Merge(key, IntVal(3), IntVal(100)); !ch || v.Int() != 8 {
		t.Fatalf("revised sum = (%v,%d), want (true,8)", ch, v.Int())
	}
	// Identical re-derivation is a no-op.
	if ch, _ := r.Merge(key, IntVal(3), IntVal(100)); ch {
		t.Fatal("identical contribution must not change the sum")
	}
}

func TestAggSumFloatEpsilon(t *testing.T) {
	s := NewSchema("rank", Column{"k", TInt}, Column{"v", TFloat})
	r := NewAggRelation(s, AggSum)
	r.SetEpsilon(1e-3)
	key := []Value{IntVal(1)}
	r.Merge(key, FloatVal(0.5), IntVal(1))
	if ch, _ := r.Merge(key, FloatVal(0.5000001), IntVal(1)); ch {
		t.Fatal("sub-epsilon change should not be reported")
	}
	if ch, _ := r.Merge(key, FloatVal(0.6), IntVal(1)); !ch {
		t.Fatal("super-epsilon change should be reported")
	}
}

func TestAggRelationContains(t *testing.T) {
	r := NewAggRelation(aggSchema("cc2"), AggMin)
	r.Merge([]Value{IntVal(1)}, IntVal(5), 0)
	if !r.Contains(Tuple{IntVal(1), IntVal(5)}) {
		t.Error("exact value should be contained")
	}
	if !r.Contains(Tuple{IntVal(1), IntVal(7)}) {
		t.Error("worse value should count as contained for min")
	}
	if r.Contains(Tuple{IntVal(1), IntVal(3)}) {
		t.Error("better value should not be contained")
	}
	if r.Contains(Tuple{IntVal(2), IntVal(5)}) {
		t.Error("missing key should not be contained")
	}
}

func TestAggRelationSnapshot(t *testing.T) {
	r := NewAggRelation(aggSchema("cc2"), AggMin)
	r.Merge([]Value{IntVal(1)}, IntVal(5), 0)
	r.Merge([]Value{IntVal(2)}, IntVal(3), 0)
	rows := r.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("snapshot len = %d", len(rows))
	}
	seen := map[int64]int64{}
	for _, row := range rows {
		seen[row[0].Int()] = row[1].Int()
	}
	if seen[1] != 5 || seen[2] != 3 {
		t.Fatalf("snapshot = %v", seen)
	}
}

// Property: min aggregate equals the model minimum per key.
func TestAggMinMatchesModel(t *testing.T) {
	f := func(entries [][2]int16) bool {
		r := NewAggRelation(aggSchema("m"), AggMin)
		model := map[int16]int16{}
		for _, e := range entries {
			k, v := e[0], e[1]
			if old, ok := model[k]; !ok || v < old {
				model[k] = v
			}
			r.Merge([]Value{IntVal(int64(k))}, IntVal(int64(v)), 0)
		}
		if r.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := r.Get([]Value{IntVal(int64(k))})
			if !ok || got.Int() != int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashIndexLookup(t *testing.T) {
	tuples := []Tuple{
		{IntVal(1), IntVal(10)},
		{IntVal(1), IntVal(11)},
		{IntVal(2), IntVal(20)},
	}
	idx := NewHashIndex(tuples, []int{0})
	got := idx.LookupAll([]Value{IntVal(1)})
	if len(got) != 2 {
		t.Fatalf("lookup(1) returned %d tuples, want 2", len(got))
	}
	if len(idx.LookupAll([]Value{IntVal(3)})) != 0 {
		t.Fatal("lookup(3) should be empty")
	}
}

func TestHashIndexCompositeKey(t *testing.T) {
	tuples := []Tuple{
		{IntVal(1), IntVal(10), IntVal(100)},
		{IntVal(1), IntVal(11), IntVal(101)},
	}
	idx := NewHashIndex(tuples, []int{0, 1})
	got := idx.LookupAll([]Value{IntVal(1), IntVal(11)})
	if len(got) != 1 || got[0][2].Int() != 101 {
		t.Fatalf("composite lookup = %v", got)
	}
}

func TestHashIndexEarlyStop(t *testing.T) {
	tuples := []Tuple{{IntVal(1), IntVal(1)}, {IntVal(1), IntVal(2)}, {IntVal(1), IntVal(3)}}
	idx := NewHashIndex(tuples, []int{0})
	n := 0
	idx.Lookup([]Value{IntVal(1)}, func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestTupleHelpers(t *testing.T) {
	a := Tuple{IntVal(1), IntVal(2), IntVal(3)}
	b := a.Clone()
	b[0] = IntVal(9)
	if a[0].Int() != 1 {
		t.Fatal("Clone must not alias")
	}
	if !a.Equal(Tuple{IntVal(1), IntVal(2), IntVal(3)}) {
		t.Fatal("Equal broken")
	}
	if a.Equal(Tuple{IntVal(1), IntVal(2)}) {
		t.Fatal("length mismatch should be unequal")
	}
	if !a.EqualOn([]int{0, 2}, Tuple{IntVal(1), IntVal(3)}, []int{0, 1}) {
		t.Fatal("EqualOn broken")
	}
}

func TestHashOnIsKeyLocal(t *testing.T) {
	a := Tuple{IntVal(1), IntVal(2)}
	b := Tuple{IntVal(1), IntVal(99)}
	if a.HashOn([]int{0}) != b.HashOn([]int{0}) {
		t.Fatal("HashOn must depend only on key columns")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("full hashes of distinct tuples collided (astronomically unlikely)")
	}
}

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	a := st.Intern("a")
	b := st.Intern("b")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if st.Intern("a") != a {
		t.Fatal("re-interning changed the id")
	}
	if s, ok := st.Lookup(a); !ok || s != "a" {
		t.Fatal("lookup failed")
	}
	if _, ok := st.Lookup(99); ok {
		t.Fatal("lookup of unknown id should fail")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema("arc", Column{"src", TInt}, Column{"dst", TInt}, Column{"w", TFloat})
	if s.Arity() != 3 {
		t.Fatal("arity")
	}
	if s.ColIndex("dst") != 1 || s.ColIndex("nope") != -1 {
		t.Fatal("ColIndex")
	}
	if s.ColType(2) != TFloat {
		t.Fatal("ColType")
	}
	p := s.Project("out", []int{2, 0})
	if p.Arity() != 2 || p.Cols[0].Name != "w" || p.Cols[1].Name != "src" {
		t.Fatalf("Project = %v", p)
	}
	if s.String() != "arc(src:int, dst:int, w:float)" {
		t.Fatalf("String = %q", s.String())
	}
}
