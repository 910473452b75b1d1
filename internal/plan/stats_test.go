package plan

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// fakeStats is a hand-built catalog for pinning the cost-based join
// order without loading data.
type fakeStats map[string]struct {
	rows     int
	distinct []int
}

func (f fakeStats) RelStats(name string) (int, []int, bool) {
	e, ok := f[name]
	if !ok {
		return 0, nil, false
	}
	return e.rows, e.distinct, true
}

func buildPlanStats(t *testing.T, src string, schemas map[string]*storage.Schema, stats StatsProvider) *Plan {
	t.Helper()
	a, err := pcg.Analyze(parser.MustParse(src), schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(a, WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanStatsEstimates pins the estimate annotations: the outer scan
// carries its row count, probes carry their fan-out, and the stratum
// sums a base-derivation estimate — while the stats-free build records
// no estimates at all.
func TestPlanStatsEstimates(t *testing.T) {
	schemas := map[string]*storage.Schema{
		"big":   intSchema("big", "x", "z"),
		"small": intSchema("small", "z", "y"),
	}
	src := `out(X, Y) :- big(X, Z), small(Z, Y).`

	// Skewed catalog: big is a million rows whose join column has only
	// ten distinct values; small is a thousand rows, all-distinct.
	stats := fakeStats{
		"big":   {rows: 1_000_000, distinct: []int{10, 1_000_000}},
		"small": {rows: 1_000, distinct: []int{1_000, 1_000}},
	}

	p := buildPlanStats(t, src, schemas, stats)
	rp := p.Strata[0].BaseRules[0]
	// The outer stays program order (the planner only cost-orders the
	// inner atoms) and carries its estimated scan rows.
	if rp.Elems[0].Atom.Pred != "big" || rp.Elems[0].EstFanout != 1_000_000 {
		t.Fatalf("outer = %s fanout %g, want big scan est 1e6",
			rp.Elems[0].Atom.Pred, rp.Elems[0].EstFanout)
	}
	// small probes on Z = its column 0, all-distinct: fanout 1.
	join := rp.Elems[1]
	if join.Atom.Pred != "small" || join.EstFanout != 1 {
		t.Fatalf("join = %s fanout %g, want small fanout 1", join.Atom.Pred, join.EstFanout)
	}
	// The stratum's base-derivation estimate is the product chain.
	if got := p.Strata[0].EstBaseDerived; got != 1_000_000 {
		t.Fatalf("EstBaseDerived = %d, want 1e6", got)
	}

	// Without stats, no estimates are recorded anywhere.
	plain := buildPlan(t, src, schemas, nil)
	rp = plain.Strata[0].BaseRules[0]
	if rp.Elems[0].EstFanout >= 0 {
		t.Fatalf("stats-free EstFanout = %g, want unknown (<0)", rp.Elems[0].EstFanout)
	}
	if plain.Strata[0].EstBaseDerived >= 0 {
		t.Fatalf("stats-free EstBaseDerived = %d, want -1", plain.Strata[0].EstBaseDerived)
	}
}

// TestPlanCostBasedInnerOrder pins that among equally-bound inner
// atoms, the one with the smaller estimated probe fan-out joins first.
func TestPlanCostBasedInnerOrder(t *testing.T) {
	schemas := map[string]*storage.Schema{
		"probe": intSchema("probe", "x"),
		"wide":  intSchema("wide", "x", "a"),
		"tight": intSchema("tight", "x", "b"),
	}
	src := `out(X, A, B) :- probe(X), wide(X, A), tight(X, B).`

	stats := fakeStats{
		"probe": {rows: 100, distinct: []int{100}},
		// wide fans out 100k rows per probe key; tight is key-unique.
		"wide":  {rows: 1_000_000, distinct: []int{10, 1_000_000}},
		"tight": {rows: 1_000, distinct: []int{1_000, 1_000}},
	}

	p := buildPlanStats(t, src, schemas, stats)
	rp := p.Strata[0].BaseRules[0]
	order := []string{rp.Elems[0].Atom.Pred, rp.Elems[1].Atom.Pred, rp.Elems[2].Atom.Pred}
	want := []string{"probe", "tight", "wide"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("join order = %v, want %v", order, want)
		}
	}

	// Stats-free: the prior ties wide and tight, so program order wins.
	plain := buildPlan(t, src, schemas, nil)
	rp = plain.Strata[0].BaseRules[0]
	if rp.Elems[1].Atom.Pred != "wide" {
		t.Fatalf("stats-free second = %s, want wide (program order)", rp.Elems[1].Atom.Pred)
	}
}

// TestPlanBoundSGProbesGuardEarly pins where the demand-rewritten SG
// delta rule probes its kept guard: sg__magic has no statistics, but
// once arc(A, X) binds X it is an existence check and costs a filter,
// so it runs before the fan-out join arc(B, Y) — with statistics and
// without.
func TestPlanBoundSGProbesGuardEarly(t *testing.T) {
	params := map[string]storage.Type{"v": storage.TInt}
	a, err := pcg.Analyze(parser.MustParse(`
		sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
		sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
		peer(Y) :- sg($v, Y).
	`), graphSchemas(), params)
	if err != nil {
		t.Fatal(err)
	}
	rw := rewrite.Apply(a)
	if !rw.Rewritten() || len(rw.Elided) != 0 {
		t.Fatalf("rewritten = %v, elided = %v; want a rewrite that keeps every guard", rw.Rewritten(), rw.Elided)
	}
	ra, err := pcg.Analyze(rw.Program, graphSchemas(), params)
	if err != nil {
		t.Fatal(err)
	}
	stats := fakeStats{"arc": {rows: 1_000, distinct: []int{800, 800}}}
	for _, opts := range [][]BuildOption{{WithStats(stats)}, nil} {
		p, err := Build(ra, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var rp *RulePlan
		for _, sp := range p.Strata {
			if sp.Preds["sg"] != nil {
				rp = sp.RecRules[0]
			}
		}
		var order []string
		for _, e := range rp.Elems {
			if e.Kind == ElemAtom {
				order = append(order, e.Atom.String())
			}
		}
		want := []string{"sg(A, B)", "arc(A, X)", "sg__magic(X)", "arc(B, Y)"}
		if strings.Join(order, " ") != strings.Join(want, " ") {
			t.Fatalf("stats=%v: delta join order = %v, want %v", opts != nil, order, want)
		}
	}
}

// TestPlanStatsKeepRecursiveOuter pins that the cost model never
// demotes the recursive delta from the outer position, whatever the
// statistics say.
func TestPlanStatsKeepRecursiveOuter(t *testing.T) {
	stats := fakeStats{
		// arc is tiny, so a pure cost ranking would want it outermost.
		"arc": {rows: 4, distinct: []int{4, 4}},
	}
	p := buildPlanStats(t, `
		tc(X, Y) :- arc(X, Y).
		tc(X, Y) :- arc(Z, Y), tc(X, Z).
	`, graphSchemas(), stats)
	rp := p.Strata[0].RecRules[0]
	if !rp.OuterDelta || rp.Elems[0].Atom.Pred != "tc" {
		t.Fatalf("outer = %s, want δtc", rp.Elems[0].Atom.Pred)
	}
}
