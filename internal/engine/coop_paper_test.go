package engine_test

// The cooperative-start threshold must not change what any program
// computes. These tests live in the engine's external test package so
// that they can pin the unexported threshold (export_test.go) and still
// drive whole queries and materialised views through the public
// dcdatalog API, which imports the engine.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/queries"
	"repro/internal/storage"
)

const neverWiden = math.MaxInt64

type paperLimit struct {
	name  string
	limit int64
}

var paperLimits = []paperLimit{
	{"parallel", 0}, // every stratum on goroutines from the first tuple: the old behaviour
	{"limit1", 1},
	{"limit64", 64},
	{"default", engine.CoopThreshold},
	{"never-widen", neverWiden},
}

// paperCase is one query with its data and parameters.
type paperCase struct {
	q      queries.Query
	edb    map[string][]storage.Tuple
	params map[string]any
	// big marks the cases that derive past the default threshold, so
	// that the default hands off mid-fixpoint; the others finish under
	// it.
	big bool
}

// paperCases builds the eight paper queries and the two bound variants
// over graphs small enough for the nested-loop oracle.
func paperCases() []paperCase {
	const seed = 5
	edges := datasets.Gnp(100, 300, seed)
	small := datasets.Gnp(36, 80, seed)
	arc := map[string][]storage.Tuple{"arc": datasets.EdgeTuples(edges)}
	arcSmall := map[string][]storage.Tuple{"arc": datasets.EdgeTuples(small)}
	weighted := datasets.Weight(edges, 100, seed)
	weightedSmall := datasets.Weight(small, 100, seed)

	var matrix []storage.Tuple
	deg := map[int64]int64{}
	verts := map[int64]bool{}
	var loopFree []datasets.Edge
	for _, e := range small {
		// No self-loops: a keyed sum is only defined when each (group,
		// contributor) pair carries one value (see internal/naive).
		if e.Src != e.Dst {
			loopFree = append(loopFree, e)
			deg[e.Src]++
			verts[e.Src], verts[e.Dst] = true, true
		}
	}
	for _, e := range loopFree {
		matrix = append(matrix, storage.Tuple{storage.IntVal(e.Src), storage.IntVal(e.Dst), storage.FloatVal(float64(deg[e.Src]))})
	}

	rng := rand.New(rand.NewSource(seed))
	var friend []storage.Tuple
	for i := 0; i < 200; i++ {
		friend = append(friend, storage.Tuple{storage.IntVal(rng.Int63n(30) + 1), storage.IntVal(rng.Int63n(30) + 1)})
	}
	organizer := []storage.Tuple{{storage.IntVal(1)}, {storage.IntVal(2)}, {storage.IntVal(3)}}
	bom := datasets.NTree(400, seed)

	return []paperCase{
		{q: queries.TC(), edb: arc, big: true},
		{q: queries.CC(), edb: arc},
		{q: queries.APSP(), edb: map[string][]storage.Tuple{"warc": datasets.WEdgeTuples(weightedSmall)}, big: true},
		{q: queries.Attend(), edb: map[string][]storage.Tuple{"organizer": organizer, "friend": friend}},
		{q: queries.SG(), edb: arcSmall},
		{q: queries.PR(), edb: map[string][]storage.Tuple{"matrix": matrix},
			params: map[string]any{"alpha": 0.85, "vnum": float64(len(verts))}},
		{q: queries.SSSP(), edb: map[string][]storage.Tuple{"warc": datasets.WEdgeTuples(weighted)},
			params: map[string]any{"start": weighted[0].Src}},
		{q: queries.Delivery(), edb: map[string][]storage.Tuple{"assbl": bom.Assbl, "basic": bom.Basic}},
		{q: queries.BoundTC(), edb: arc, params: map[string]any{"src": edges[0].Src}},
		{q: queries.BoundSG(), edb: arcSmall, params: map[string]any{"v": small[0].Dst}},
	}
}

// oracle evaluates the case with internal/naive, which shares no
// planning or execution code with the engine.
func (c paperCase) oracle(t *testing.T) []storage.Tuple {
	t.Helper()
	schemas := map[string]*storage.Schema{}
	for _, s := range c.q.EDB {
		schemas[s.Name] = s
	}
	types := map[string]storage.Type{}
	values := map[string]storage.Value{}
	for k, v := range c.params {
		switch x := v.(type) {
		case int64:
			types[k], values[k] = storage.TInt, storage.IntVal(x)
		case float64:
			types[k], values[k] = storage.TFloat, storage.FloatVal(x)
		}
	}
	a, err := pcg.Analyze(parser.MustParse(c.q.Source), schemas, types)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := naive.Eval(a, c.edb, nil, values)
	if err != nil {
		t.Fatal(err)
	}
	return rels[c.q.Output]
}

func (c paperCase) newDB(t *testing.T) *dcdatalog.Database {
	t.Helper()
	db := dcdatalog.NewDatabase()
	for _, s := range c.q.EDB {
		if err := db.DeclareSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	for rel, tuples := range c.edb {
		if err := db.LoadTuples(rel, tuples); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// canon renders a relation as sorted rows of its integer columns, with
// the float columns (PageRank's rank) alongside for a tolerance
// comparison; every paper query's output is unique on its integers.
func canon(schemaFloat func(col int) bool, ts []storage.Tuple) (keys []string, floats map[string][]float64) {
	floats = map[string][]float64{}
	for _, tup := range ts {
		key := ""
		var fs []float64
		for i, v := range tup {
			if schemaFloat(i) {
				fs = append(fs, v.Float())
			} else {
				key += fmt.Sprint(v.Int()) + ","
			}
		}
		keys = append(keys, key)
		floats[key] = fs
	}
	sort.Strings(keys)
	return keys, floats
}

func assertSame(t *testing.T, q queries.Query, got, want []storage.Tuple) {
	t.Helper()
	isFloat := func(col int) bool { return q.Name == "PR" && col == 1 }
	gk, gf := canon(isFloat, got)
	wk, wf := canon(isFloat, want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: engine has %d tuples, oracle %d", q.Name, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("%s row %d: engine %s vs oracle %s", q.Name, i, gk[i], wk[i])
		}
		for j, w := range wf[wk[i]] {
			if g := gf[gk[i]][j]; math.Abs(g-w) > 1e-6*math.Max(1, math.Abs(w)) {
				t.Fatalf("%s row %s: engine %g vs oracle %g", q.Name, gk[i], g, w)
			}
		}
	}
}

// TestCoopPaperQueriesAtEveryLimit: the eight paper queries and the two
// bound point queries × five thresholds × Global/SSP/DWS × {2, 4, 8}
// workers × stealing on/off, each cold (the Exec that builds the
// indexes) and warm (a second Exec of the same Prepared against the
// memoised indexes), all ≡ internal/naive.
func TestCoopPaperQueriesAtEveryLimit(t *testing.T) {
	paperDifferential(t, paperLimits)
}

// paperDifferential runs every paper case at each of the given
// thresholds, strategies, worker counts and steal settings, cold and
// warm, against internal/naive.
func paperDifferential(t *testing.T, limits []paperLimit) {
	strategies := []dcdatalog.Strategy{dcdatalog.Global, dcdatalog.SSP, dcdatalog.DWS}
	for _, c := range paperCases() {
		t.Run(c.q.Name, func(t *testing.T) {
			want := c.oracle(t)
			if len(want) == 0 {
				t.Fatal("oracle derived nothing; the case proves nothing")
			}
			var params []dcdatalog.Option
			for k, v := range c.params {
				params = append(params, dcdatalog.WithParam(k, v))
			}
			for _, l := range limits {
				t.Run(l.name, func(t *testing.T) {
					engine.SetCoopLimit(t, l.limit)
					widened := 0
					for _, strat := range strategies {
						for _, workers := range []int{2, 4, 8} {
							for _, steal := range []bool{true, false} {
								opts := append([]dcdatalog.Option{dcdatalog.WithWorkers(workers), dcdatalog.WithStrategy(strat)}, params...)
								if !steal {
									opts = append(opts, dcdatalog.WithoutStealing())
								}
								prep, err := c.newDB(t).Prepare(c.q.Source, opts...)
								if err != nil {
									t.Fatal(err)
								}
								for _, phase := range []string{"cold", "warm"} {
									res, err := prep.Exec(context.Background())
									if err != nil {
										t.Fatalf("%v w%d steal=%v %s: %v", strat, workers, steal, phase, err)
									}
									assertSame(t, c.q, res.Relation(c.q.Output), want)
									widened += res.Stats().WidenedStrata
								}
							}
						}
					}
					switch {
					case l.limit == neverWiden && widened != 0:
						t.Fatalf("%d strata widened with the threshold at infinity", widened)
					case l.limit == 0 && widened == 0:
						t.Fatal("no stratum ran in parallel with the threshold at zero")
					case l.limit == engine.CoopThreshold && (widened > 0) != c.big:
						t.Fatalf("%d strata widened at the default threshold, want big = %v", widened, c.big)
					}
				})
			}
		})
	}
}

// TestCoopViewStreamAtLimits is the IVM fuzzed differential — a
// maintained view equals a cold recompute after every mutation batch —
// with the hand-off forced as early as it can happen and never
// allowed: a refresh runs generated delta programs whose strata are
// the smallest fixpoints the engine sees. TC and SG take the
// incremental pipeline, CC the recompute fallback.
func TestCoopViewStreamAtLimits(t *testing.T) {
	viewStreamDifferential(t, []paperLimit{{"limit1", 1}, {"never-widen", neverWiden}})
}

// viewStreamDifferential runs the view stream at each given threshold
// under every strategy.
func viewStreamDifferential(t *testing.T, limits []paperLimit) {
	strategies := []dcdatalog.Strategy{dcdatalog.Global, dcdatalog.SSP, dcdatalog.DWS}
	for _, l := range limits {
		for _, q := range []queries.Query{queries.TC(), queries.SG(), queries.CC()} {
			for si, strat := range strategies {
				t.Run(fmt.Sprintf("%s/%s/%v", l.name, q.Name, strat), func(t *testing.T) {
					engine.SetCoopLimit(t, l.limit)
					rng := rand.New(rand.NewSource(int64(11 + si)))
					randomEdge := func() dcdatalog.Tuple {
						return dcdatalog.Tuple{storage.IntVal(rng.Int63n(18)), storage.IntVal(rng.Int63n(18))}
					}
					db := dcdatalog.NewDatabase()
					if err := db.DeclareSchema(queries.Arc()); err != nil {
						t.Fatal(err)
					}
					var edges []dcdatalog.Tuple
					for i := 0; i < 36; i++ {
						edges = append(edges, randomEdge())
					}
					if err := db.LoadTuples("arc", edges); err != nil {
						t.Fatal(err)
					}
					opts := []dcdatalog.Option{dcdatalog.WithWorkers(3), dcdatalog.WithStrategy(strat),
						dcdatalog.WithBatchSize(8), dcdatalog.WithCrossover(0.95)}
					v, err := db.Materialize("v", q.Source, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 8; round++ {
						for i := 1 + rng.Intn(3); i > 0; i-- {
							live := db.Relation("arc")
							if rng.Intn(2) == 0 && len(live) > 0 {
								err = db.DeleteTuples("arc", []dcdatalog.Tuple{live[rng.Intn(len(live))]})
							} else {
								err = db.InsertTuples("arc", []dcdatalog.Tuple{randomEdge()})
							}
							if err != nil {
								t.Fatal(err)
							}
						}
						if _, err := v.Refresh(context.Background()); err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						cold, err := db.Query(q.Source, opts...)
						if err != nil {
							t.Fatal(err)
						}
						assertSame(t, q, v.Relation(q.Output), cold.Relation(q.Output))
					}
				})
			}
		}
	}
}

// TestViewRefreshPreCanceled: a refresh is a handful of strata that
// finish in microseconds, which is exactly when a cancellation that
// depends on a watcher goroutine being scheduled goes unnoticed. A
// context that is already done must fail the refresh every time, and
// the view must recover on the next one.
func TestViewRefreshPreCanceled(t *testing.T) {
	db := dcdatalog.NewDatabase()
	if err := db.DeclareSchema(queries.Arc()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("arc", [][]any{{1, 2}, {2, 3}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	q := queries.TC()
	for _, workers := range []int{1, 2, 8} {
		v, err := db.Materialize(fmt.Sprintf("v%d", workers), q.Source, dcdatalog.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 50; i++ {
			// A fresh edge each time: a refresh with nothing pending
			// returns before it evaluates anything.
			from := 1000*workers + i
			if err := db.Insert("arc", [][]any{{from, from + 1}}); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Refresh(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("w%d refresh %d under a canceled context: err = %v", workers, i, err)
			}
			if _, err := v.Refresh(context.Background()); err != nil {
				t.Fatalf("w%d recovery %d: %v", workers, i, err)
			}
			cold, err := db.Query(q.Source, dcdatalog.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, q, v.Relation("tc"), cold.Relation("tc"))
		}
	}
}
