package ivm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/coord"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/storage"
)

func rows(ts []storage.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = fmt.Sprint([]storage.Value(t))
	}
	sort.Strings(out)
	return out
}

// coldFixpoint recomputes the fixpoint from scratch for comparison.
func coldFixpoint(t testing.TB, cfg Config, edb map[string][]storage.Tuple, pred string) []string {
	t.Helper()
	prog, _, err := compileText(cfg.Source, cfg.Schemas, cfg.Params, cfg.Syms)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	res, err := engine.Run(prog, edb, cfg.Opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return rows(res.Relations[pred])
}

func pair(a, b int64) storage.Tuple {
	return storage.Tuple{storage.IntVal(a), storage.IntVal(b)}
}

func tcConfig() Config {
	return Config{
		Name:    "tc",
		Source:  tcSrc,
		Schemas: tcSchemas(),
		Syms:    storage.NewSymbolTable(),
		Opts:    engine.Options{Workers: 2},
	}
}

// checkAgainstCold asserts the view's maintained fixpoint equals a cold
// recompute over the view's own EDB state.
func checkAgainstCold(t testing.TB, v *View, cfg Config, pred string) {
	t.Helper()
	edb := map[string][]storage.Tuple{}
	for rel := range cfg.Schemas {
		edb[rel] = v.EDBRelation(rel)
	}
	want := coldFixpoint(t, cfg, edb, pred)
	got := rows(v.Relation(pred))
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows maintained, %d cold", pred, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: maintained %s, cold %s", pred, i, got[i], want[i])
		}
	}
}

func TestViewInsertOnly(t *testing.T) {
	cfg := tcConfig()
	cfg.Crossover = 0.9 // the graph is tiny; keep single-edge batches incremental
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": {pair(1, 2), pair(2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(v.Relation("tc")); len(got) != 3 {
		t.Fatalf("initial tc = %v", got)
	}

	// Single-edge insert bridging to a new chain.
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" {
		t.Fatalf("mode = %s (%s), want incremental", st.Mode, st.Reason)
	}
	if st.InsTuples != 1 || st.Added != 3 {
		t.Fatalf("stats = %+v, want 1 net insert deriving 3 new tc tuples", st)
	}
	checkAgainstCold(t, v, cfg, "tc")

	// Duplicate insert of an existing edge is a multiset no-op.
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	st, err = v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "noop" {
		t.Fatalf("duplicate insert mode = %s, want noop", st.Mode)
	}
}

func TestViewDeleteRederive(t *testing.T) {
	cfg := tcConfig()
	ctx := context.Background()
	// Diamond: 1→2→4 and 1→3→4, then 4→5. Deleting 2→4 must keep
	// 1⇝4 and 1⇝5 alive through the 3-path (DRed re-derivation).
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": {pair(1, 2), pair(2, 4), pair(1, 3), pair(3, 4), pair(4, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(2, 4), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" {
		t.Fatalf("mode = %s (%s), want incremental", st.Mode, st.Reason)
	}
	if st.OverDeleted == 0 || st.Rederived == 0 {
		t.Fatalf("stats = %+v, want both over-deletions and re-derivations", st)
	}
	checkAgainstCold(t, v, cfg, "tc")
	got := rows(v.Relation("tc"))
	want := rows([]storage.Tuple{
		pair(1, 2), pair(1, 3), pair(1, 4), pair(1, 5),
		pair(3, 4), pair(3, 5), pair(4, 5),
	})
	if len(got) != len(want) {
		t.Fatalf("tc = %v, want %v", got, want)
	}

	// Deleting an unknown tuple is a no-op.
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(9, 9), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if st, err = v.Refresh(ctx); err != nil || st.Mode != "noop" {
		t.Fatalf("ghost delete: mode=%s err=%v", st.Mode, err)
	}
}

func TestViewMixedBatchAndRevive(t *testing.T) {
	cfg := tcConfig()
	cfg.Crossover = 10 // keep even large relative batches incremental
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": {pair(1, 2), pair(2, 3), pair(3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One batch: delete 2→3, insert 2→5 and 5→3 (reroute), plus a
	// delete/insert pair of the same tuple that must cancel out.
	err = v.Apply([]Mutation{
		{Rel: "arc", Tuple: pair(2, 3), Delete: true},
		{Rel: "arc", Tuple: pair(2, 5)},
		{Rel: "arc", Tuple: pair(5, 3)},
		{Rel: "arc", Tuple: pair(3, 4), Delete: true},
		{Rel: "arc", Tuple: pair(3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" {
		t.Fatalf("mode = %s (%s)", st.Mode, st.Reason)
	}
	if st.InsTuples != 2 || st.DelTuples != 1 {
		t.Fatalf("net deltas = +%d/-%d, want +2/-1", st.InsTuples, st.DelTuples)
	}
	checkAgainstCold(t, v, cfg, "tc")
	// 1⇝3, 1⇝4 etc. survived the reroute.
	got := rows(v.Relation("tc"))
	for _, must := range []string{rows([]storage.Tuple{pair(1, 4)})[0], rows([]storage.Tuple{pair(1, 3)})[0]} {
		found := false
		for _, g := range got {
			if g == must {
				found = true
			}
		}
		if !found {
			t.Fatalf("tc lost %s across reroute: %v", must, got)
		}
	}
}

func TestViewCrossoverFallback(t *testing.T) {
	cfg := tcConfig()
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": {pair(1, 2), pair(2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Churn 2/2 = 1.0 > 0.3 default crossover.
	err = v.Apply([]Mutation{
		{Rel: "arc", Tuple: pair(1, 2), Delete: true},
		{Rel: "arc", Tuple: pair(7, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "full" || st.Reason == "" {
		t.Fatalf("mode = %s (%q), want full with a churn reason", st.Mode, st.Reason)
	}
	checkAgainstCold(t, v, cfg, "tc")
	if s := v.Stats(); s.Full != 1 || s.Refreshes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestViewIneligibleFallsBack(t *testing.T) {
	cfg := Config{
		Name:   "guarded",
		Source: `t(X, Y) :- arc(X, Y), !blocked(X, Y).`,
		Schemas: map[string]*storage.Schema{
			"arc":     intSchema("arc", "x", "y"),
			"blocked": intSchema("blocked", "x", "y"),
		},
		Syms: storage.NewSymbolTable(),
		Opts: engine.Options{Workers: 2},
	}
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc":     {pair(1, 2), pair(2, 3)},
		"blocked": {pair(2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().Ineligible == "" {
		t.Fatal("negation program should be ineligible")
	}
	if err := v.Apply([]Mutation{{Rel: "blocked", Tuple: pair(2, 3), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "full" {
		t.Fatalf("mode = %s, want full", st.Mode)
	}
	checkAgainstCold(t, v, cfg, "t")
}

func TestViewCancellationRecovers(t *testing.T) {
	cfg := tcConfig()
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": {pair(1, 2), pair(2, 3), pair(3, 4), pair(4, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(5, 6)}}); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := v.Refresh(canceled); err == nil {
		t.Fatal("refresh under a canceled context should fail")
	}
	if s := v.Stats(); !s.Stale {
		t.Fatalf("view should be stale after a failed refresh: %+v", s)
	}
	// The mutation was drained into the mirrors; recovery recomputes.
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "full" {
		t.Fatalf("recovery mode = %s (%s), want full", st.Mode, st.Reason)
	}
	if s := v.Stats(); s.Stale {
		t.Fatal("view still stale after successful recovery")
	}
	checkAgainstCold(t, v, cfg, "tc")
}

// TestViewRandomizedDifferential fuzzes mutation batches over a random
// graph and checks the maintained fixpoint equals a cold recompute
// after every refresh, across strategies.
func TestViewRandomizedDifferential(t *testing.T) {
	for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
		strat := strat
		t.Run(fmt.Sprint(strat), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			cfg := tcConfig()
			cfg.Crossover = 0.9
			cfg.Opts = engine.Options{Workers: 3, Strategy: strat, BatchSize: 8}
			const nodes = 24
			var arcs []storage.Tuple
			for i := 0; i < 40; i++ {
				arcs = append(arcs, pair(rng.Int63n(nodes), rng.Int63n(nodes)))
			}
			fuzzView(t, rng, cfg, arcs, nodes, "tc")
		})
	}
}

// fuzzView materializes cfg over arcs, applies twelve random batches of
// one to four edge inserts or deletes over vertices [0, nodes), and
// checks the view's out relation against a cold recompute after every
// refresh; at least one refresh must stay incremental.
func fuzzView(t *testing.T, rng *rand.Rand, cfg Config, arcs []storage.Tuple, nodes int64, out string) {
	t.Helper()
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{"arc": arcs})
	if err != nil {
		t.Fatal(err)
	}
	incr := 0
	for round := 0; round < 12; round++ {
		n := 1 + rng.Intn(4)
		var muts []Mutation
		for i := 0; i < n; i++ {
			mut := Mutation{Rel: "arc", Tuple: pair(rng.Int63n(nodes), rng.Int63n(nodes))}
			if live := v.EDBRelation("arc"); rng.Intn(2) == 0 && len(live) > 0 {
				mut = Mutation{Rel: "arc", Tuple: live[rng.Intn(len(live))], Delete: true}
			}
			muts = append(muts, mut)
		}
		if err := v.Apply(muts); err != nil {
			t.Fatal(err)
		}
		st, err := v.Refresh(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.Mode == "incremental" {
			incr++
		}
		checkAgainstCold(t, v, cfg, out)
	}
	if incr == 0 {
		t.Fatal("no round exercised the incremental path")
	}
}

// TestViewRederiveProbesPerKill pins the work of the re-derive phase,
// host-independently: deleting the root's first edge in a binary tree
// over-deletes every path through it, and each killed tc(0, Y) must be
// re-checked by probing the post-delete arc on Y, then the kept
// fixpoint as a filter — one row walked and a few directory slots per
// kill. A plan that enumerates every live tc(0, _) first and probes arc
// on (Z, Y) for each walks ~500 rows and inspects ~670 tag slots per
// kill on this tree, so it misses both bounds by two orders of
// magnitude.
func TestViewRederiveProbesPerKill(t *testing.T) {
	cfg := tcConfig()
	ctx := context.Background()
	v, err := New(ctx, cfg, map[string][]storage.Tuple{
		"arc": datasets.EdgeTuples(datasets.Tree(9, 2, 2, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Apply([]Mutation{{Rel: "arc", Tuple: pair(0, 1), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	st, err := v.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" || st.OverDeleted == 0 {
		t.Fatalf("refresh = %+v, want an incremental refresh that over-deletes", st)
	}
	checkAgainstCold(t, v, cfg, "tc")
	red := st.RedProbe
	kills := float64(st.OverDeleted)
	if got := float64(red.TagProbes) / kills; got > 6 {
		t.Errorf("re-derive inspected %.1f tag slots per over-deleted tuple, want ≤ 6 (%+v)", got, red)
	}
	if got := float64(red.KeyCompares+red.KeySkips) / kills; got > 4 {
		t.Errorf("re-derive walked %.1f index rows per over-deleted tuple, want ≤ 4 (%+v)", got, red)
	}
	var sum storage.ProbeCounters
	sum.Add(st.DelProbe)
	sum.Add(st.RedProbe)
	sum.Add(st.InsProbe)
	if sum != st.Probe {
		t.Errorf("phase probes sum to %+v, want the refresh total %+v", sum, st.Probe)
	}
	if st.TuplesDerived < int64(st.OverDeleted) {
		t.Errorf("TuplesDerived = %d, below the %d over-deleted tuples the delete run derived", st.TuplesDerived, st.OverDeleted)
	}
}

// TestViewProgramsDifferential extends the TC differential to eligible
// programs where the statistics-driven planner has a real choice in the
// delta programs: a two-hop rule with two EDB joins, a recursive rule
// under a `!=` condition, and a rule with a constant argument. Each
// runs random insert/delete batches over a tree and over a random
// graph, and after every refresh the view must equal a cold recompute.
func TestViewProgramsDifferential(t *testing.T) {
	programs := []struct{ name, src, out string }{
		{"two-hop", `
			p(X, Y) :- arc(X, Y).
			p(X, Y) :- p(X, Z), arc(Z, W), arc(W, Y).`, "p"},
		{"neq", `
			p(X, Y) :- arc(X, Y), Y != X.
			p(X, Y) :- p(X, Z), arc(Z, Y), Y != X.`, "p"},
		{"const", `
			reach(Y) :- arc(0, Y).
			reach(Y) :- reach(X), arc(X, Y).`, "reach"},
	}
	graphs := []struct {
		name  string
		nodes int64
		arcs  func(rng *rand.Rand) []storage.Tuple
	}{
		{"tree", 31, func(*rand.Rand) []storage.Tuple { return datasets.EdgeTuples(datasets.Tree(4, 2, 2, 1)) }},
		{"random", 24, func(rng *rand.Rand) []storage.Tuple {
			var arcs []storage.Tuple
			for i := 0; i < 40; i++ {
				arcs = append(arcs, pair(rng.Int63n(24), rng.Int63n(24)))
			}
			return arcs
		}},
	}
	for _, prog := range programs {
		for _, g := range graphs {
			for _, strat := range []coord.Kind{coord.Global, coord.SSP, coord.DWS} {
				prog, g, strat := prog, g, strat
				t.Run(fmt.Sprintf("%s/%s/%v", prog.name, g.name, strat), func(t *testing.T) {
					rng := rand.New(rand.NewSource(7))
					cfg := tcConfig()
					cfg.Source = prog.src
					cfg.Crossover = 0.9
					cfg.Opts = engine.Options{Workers: 3, Strategy: strat, BatchSize: 8}
					if reason := ineligible(analyze(t, prog.src, cfg.Schemas)); reason != "" {
						t.Fatalf("program ineligible: %s", reason)
					}
					fuzzView(t, rng, cfg, g.arcs(rng), g.nodes, prog.out)
				})
			}
		}
	}
}
