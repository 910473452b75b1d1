package engine

// Differential tests: the parallel engine and the independent naive
// oracle (internal/naive) must agree on every paper query over
// randomized datasets, for every coordination strategy. The two
// implementations share no planning or execution code, so agreement is
// strong evidence of correctness.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/coord"

	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/storage"
)

// diffConfigs is a trimmed strategy/worker matrix: the reference tests
// in engine_test.go already sweep the full allConfigs grid, so the
// differential suite samples one representative per strategy plus the
// sequential floor.
func diffConfigs() []Options {
	return []Options{
		{Workers: 3, Strategy: coord.Global, BatchSize: 8},
		{Workers: 4, Strategy: coord.SSP, BatchSize: 8},
		{Workers: 3, Strategy: coord.DWS, BatchSize: 8},
		{Workers: 1, Strategy: coord.DWS, BatchSize: 8},
	}
}

// runBoth evaluates src through the parallel engine (with the given
// options) and through the oracle, returning both relation maps.
func runBoth(t *testing.T, src string, schemas map[string]*storage.Schema,
	edb map[string][]storage.Tuple, params map[string]physical.Param,
	opts Options) (map[string][]storage.Tuple, map[string][]storage.Tuple) {
	t.Helper()
	pt := map[string]storage.Type{}
	pv := map[string]storage.Value{}
	for k, p := range params {
		pt[k] = p.Type
		pv[k] = p.Value
	}
	a, err := pcg.Analyze(parser.MustParse(src), schemas, pt)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := plan.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	syms := storage.NewSymbolTable()
	prog, err := physical.Compile(lp, params, syms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := naive.Eval(a, edb, syms, pv, naive.WithEpsilon(opts.Epsilon))
	if err != nil {
		t.Fatal(err)
	}
	return res.Relations, oracle
}

// assertSameRelation compares two tuple sets exactly (integer data).
func assertSameRelation(t *testing.T, name string, got, want []storage.Tuple) {
	t.Helper()
	g, w := sortedRows(got), sortedRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: engine has %d tuples, oracle %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s row %d: engine %s vs oracle %s", name, i, g[i], w[i])
		}
	}
}

func TestDifferentialTC(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges := randGraph(rng, 25+int(seed)*10, 60+int(seed)*30)
		for _, o := range diffConfigs() {
			got, want := runBoth(t, tcSrc, arcSchemas(),
				map[string][]storage.Tuple{"arc": pairs(edges)}, nil, o)
			assertSameRelation(t, fmt.Sprintf("tc/seed%d/%s", seed, cfgName(o)), got["tc"], want["tc"])
		}
	}
}

func TestDifferentialCC(t *testing.T) {
	src := `
		cc2(Y, min<Y>) :- arc(Y, _).
		cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).
		cc(Y, min<Z>) :- cc2(Y, Z).
	`
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		base := randGraph(rng, 40, 70)
		var edges [][2]int64
		for _, e := range base {
			edges = append(edges, e, [2]int64{e[1], e[0]})
		}
		for _, o := range diffConfigs() {
			got, want := runBoth(t, src, arcSchemas(),
				map[string][]storage.Tuple{"arc": pairs(edges)}, nil, o)
			assertSameRelation(t, fmt.Sprintf("cc/seed%d/%s", seed, cfgName(o)), got["cc"], want["cc"])
		}
	}
}

func TestDifferentialSSSP(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		var edges [][3]int64
		for i := 0; i < 150; i++ {
			edges = append(edges, [3]int64{rng.Int63n(40), rng.Int63n(40), 1 + rng.Int63n(20)})
		}
		params := map[string]physical.Param{"start": {Value: storage.IntVal(edges[0][0]), Type: storage.TInt}}
		for _, o := range diffConfigs() {
			got, want := runBoth(t, ssspSrc, warcSchemas(),
				map[string][]storage.Tuple{"warc": triples(edges)}, params, o)
			assertSameRelation(t, fmt.Sprintf("sssp/seed%d/%s", seed, cfgName(o)), got["sp"], want["sp"])
		}
	}
}

func TestDifferentialAPSP(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		var edges [][3]int64
		for i := 0; i < 30; i++ {
			edges = append(edges, [3]int64{rng.Int63n(12), rng.Int63n(12), 1 + rng.Int63n(9)})
		}
		for _, o := range diffConfigs() {
			got, want := runBoth(t, apspSrc, warcSchemas(),
				map[string][]storage.Tuple{"warc": triples(edges)}, nil, o)
			assertSameRelation(t, fmt.Sprintf("apsp/seed%d/%s", seed, cfgName(o)), got["path"], want["path"])
		}
	}
}

func TestDifferentialDeliveryAndAttend(t *testing.T) {
	// Delivery on random forests.
	deliverySrc := `
		delivery(P, max<D>) :- basic(P, D).
		delivery(P, max<D>) :- assbl(P, S), delivery(S, D).
	`
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		var assbl, basic [][2]int64
		// Parts 0..29; each part i>0 gets parent rng(i); leaves get days.
		isParent := map[int64]bool{}
		for i := int64(1); i < 30; i++ {
			p := rng.Int63n(i)
			assbl = append(assbl, [2]int64{p, i})
			isParent[p] = true
		}
		for i := int64(0); i < 30; i++ {
			if !isParent[i] {
				basic = append(basic, [2]int64{i, 1 + rng.Int63n(50)})
			}
		}
		schemas := map[string]*storage.Schema{
			"assbl": intSchema("assbl", "p", "s"),
			"basic": intSchema("basic", "p", "d"),
		}
		edb := map[string][]storage.Tuple{"assbl": pairs(assbl), "basic": pairs(basic)}
		for _, o := range diffConfigs() {
			got, want := runBoth(t, deliverySrc, schemas, edb, nil, o)
			assertSameRelation(t, fmt.Sprintf("delivery/seed%d/%s", seed, cfgName(o)), got["delivery"], want["delivery"])
		}
	}

	// Attend on random friendship graphs.
	attendSrc := `
		attend(X) :- organizer(X).
		cnt(Y, count<X>) :- attend(X), friend(Y, X).
		attend(X) :- cnt(X, N), N >= 3.
	`
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		var friends [][2]int64
		for i := 0; i < 120; i++ {
			friends = append(friends, [2]int64{rng.Int63n(25), rng.Int63n(25)})
		}
		orgs := []storage.Tuple{{storage.IntVal(0)}, {storage.IntVal(1)}, {storage.IntVal(2)}}
		schemas := map[string]*storage.Schema{
			"organizer": intSchema("organizer", "x"),
			"friend":    intSchema("friend", "y", "x"),
		}
		edb := map[string][]storage.Tuple{"organizer": orgs, "friend": pairs(friends)}
		for _, o := range diffConfigs() {
			got, want := runBoth(t, attendSrc, schemas, edb, nil, o)
			assertSameRelation(t, fmt.Sprintf("attend/seed%d/%s", seed, cfgName(o)), got["attend"], want["attend"])
			assertSameRelation(t, fmt.Sprintf("cnt/seed%d/%s", seed, cfgName(o)), got["cnt"], want["cnt"])
		}
	}
}

func TestDifferentialSGWithNegation(t *testing.T) {
	src := `
		sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
		sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		node(X) :- arc(_, X).
		nosib(X) :- node(X), !sg(X, X).
	`
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		edges := randGraph(rng, 15, 25)
		for _, o := range diffConfigs() {
			got, want := runBoth(t, src, arcSchemas(),
				map[string][]storage.Tuple{"arc": pairs(edges)}, nil, o)
			assertSameRelation(t, fmt.Sprintf("sg/seed%d/%s", seed, cfgName(o)), got["sg"], want["sg"])
			assertSameRelation(t, fmt.Sprintf("nosib/seed%d/%s", seed, cfgName(o)), got["nosib"], want["nosib"])
		}
	}
}

// TestDifferentialAntiJoinMisses drives a fully-bound negation against
// a base index whose probes almost all miss (few self-loops), so the
// pure-key ContainsProbe anti-join path runs over thousands of absent
// keys and a handful of present ones.
func TestDifferentialAntiJoinMisses(t *testing.T) {
	src := `
		node(X) :- arc(X, _).
		node(X) :- arc(_, X).
		sink(X) :- node(X), !arc(X, X).
	`
	rng := rand.New(rand.NewSource(47))
	edb := map[string][]storage.Tuple{"arc": pairs(randGraph(rng, 400, 900))}
	for _, o := range diffConfigs() {
		got, want := runBoth(t, src, arcSchemas(), edb, nil, o)
		assertSameRelation(t, "node/"+cfgName(o), got["node"], want["node"])
		assertSameRelation(t, "sink/"+cfgName(o), got["sink"], want["sink"])
		if n := len(got["sink"]); n == 0 || n == len(got["node"]) {
			t.Fatalf("%s: sink has %d of %d nodes; the anti-join must both hit and miss", cfgName(o), n, len(got["node"]))
		}
	}
}

func TestDifferentialPageRank(t *testing.T) {
	src := `
		rank(X, sum<(X, I)>) :- matrix(X, _, _), I = (1 - $alpha) / $vnum.
		rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), K = $alpha * (C / D).
	`
	schemas := map[string]*storage.Schema{
		"matrix": storage.NewSchema("matrix",
			storage.Column{Name: "x", Type: storage.TInt},
			storage.Column{Name: "y", Type: storage.TInt},
			storage.Column{Name: "d", Type: storage.TFloat}),
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		// No self-loops: a self-loop makes rank(X)'s contributor X
		// collide between the seed rule and the propagation rule, and
		// a keyed sum is only well-defined when each (group,
		// contributor) pair carries one value (see internal/naive).
		var edges [][2]int64
		for _, e := range randGraph(rng, 12, 30) {
			if e[0] != e[1] {
				edges = append(edges, e)
			}
		}
		deg := map[int64]int64{}
		verts := map[int64]bool{}
		for _, e := range edges {
			deg[e[0]]++
			verts[e[0]] = true
			verts[e[1]] = true
		}
		var matrix []storage.Tuple
		for _, e := range edges {
			matrix = append(matrix, storage.Tuple{
				storage.IntVal(e[0]), storage.IntVal(e[1]), storage.FloatVal(float64(deg[e[0]]))})
		}
		params := map[string]physical.Param{
			"alpha": {Value: storage.FloatVal(0.85), Type: storage.TFloat},
			"vnum":  {Value: storage.FloatVal(float64(len(verts))), Type: storage.TFloat},
		}
		o := Options{Workers: 3, Epsilon: 1e-12}
		got, want := runBoth(t, src, schemas,
			map[string][]storage.Tuple{"matrix": matrix}, params, o)
		// Floats: compare per-key with tolerance.
		gm := map[int64]float64{}
		for _, r := range got["rank"] {
			gm[r[0].Int()] = r[1].Float()
		}
		wm := map[int64]float64{}
		for _, r := range want["rank"] {
			wm[r[0].Int()] = r[1].Float()
		}
		if len(gm) != len(wm) {
			t.Fatalf("seed %d: %d vs %d ranked vertices", seed, len(gm), len(wm))
		}
		for k, v := range wm {
			if math.Abs(gm[k]-v) > 1e-6 {
				t.Fatalf("seed %d: rank[%d] = %g vs oracle %g", seed, k, gm[k], v)
			}
		}
	}
}

// TestDifferentialRandomChains runs randomized multi-strata programs:
// a recursive core, a derived aggregate stratum and a negation stratum.
func TestDifferentialRandomChains(t *testing.T) {
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- tc(X, Z), arc(Z, Y).
		outdeg(X, count<Y>) :- tc(X, Y).
		far(X, max<Y>) :- tc(X, Y).
		source(X) :- arc(X, _), !fed(X).
		fed(Y) :- arc(_, Y).
	`
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		edges := randGraph(rng, 20, 40)
		for _, o := range diffConfigs() {
			got, want := runBoth(t, src, arcSchemas(),
				map[string][]storage.Tuple{"arc": pairs(edges)}, nil, o)
			for _, rel := range []string{"tc", "outdeg", "far", "source", "fed"} {
				assertSameRelation(t, fmt.Sprintf("%s/seed%d/%s", rel, seed, cfgName(o)), got[rel], want[rel])
			}
		}
	}
}

// TestDifferentialSymbols exercises interned string columns end to end.
func TestDifferentialSymbols(t *testing.T) {
	src := `
		anc(X, Y) :- parent(X, Y).
		anc(X, Y) :- anc(X, Z), parent(Z, Y).
	`
	schemas := map[string]*storage.Schema{
		"parent": storage.NewSchema("parent",
			storage.Column{Name: "p", Type: storage.TSym},
			storage.Column{Name: "c", Type: storage.TSym}),
	}
	syms := storage.NewSymbolTable()
	names := []string{"ada", "bob", "cy", "dee", "eli", "fay"}
	var edb []storage.Tuple
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		a, b := names[rng.Intn(3)], names[3+rng.Intn(3)]
		edb = append(edb, storage.Tuple{storage.SymVal(syms.Intern(a)), storage.SymVal(syms.Intern(b))})
	}
	a, err := pcg.Analyze(parser.MustParse(src), schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := plan.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := physical.Compile(lp, nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, map[string][]storage.Tuple{"parent": edb}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := naive.Eval(a, map[string][]storage.Tuple{"parent": edb}, syms, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, w := sortedRows(res.Relations["anc"]), sortedRows(oracle["anc"])
	sort.Strings(g)
	sort.Strings(w)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("anc: %v vs %v", g, w)
	}
}
