package dcdatalog

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/queries"
)

// demandQueryData extends paperQueryData to the bound point-query
// variants, binding the parameter to a vertex that exists in the
// deterministic Gnp graph the suite loads.
func demandQueryData(t *testing.T, q queries.Query) (func(*Database), []Option) {
	t.Helper()
	switch q.Name {
	case "TC-bound", "TC-bound-right", "TC-bound-nonlinear", "SG-bound":
		seed := int64(5)
		edges := datasets.Gnp(100, 300, seed)
		if q.Name == "TC-bound-nonlinear" {
			// Without the rewrite this derives the full closure
			// non-linearly; a smaller graph keeps the -race run short.
			edges = datasets.Gnp(48, 120, seed)
		}
		load := func(db *Database) {
			for _, s := range q.EDB {
				if err := db.DeclareSchema(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.LoadTuples("arc", datasets.EdgeTuples(edges)); err != nil {
				t.Fatal(err)
			}
		}
		if q.Name == "SG-bound" {
			return load, []Option{WithParam("v", edges[0].Dst)}
		}
		return load, []Option{WithParam("src", edges[0].Src)}
	}
	return paperQueryData(t, q)
}

// TestDemandDifferentialAllQueries runs every paper query plus the
// bound point-query variants under each coordination strategy with the
// demand rewrite on (the default) and off (WithoutDemandRewrite) —
// cold, and again through the warm prepared-base path — and requires
// identical output relations throughout. The rewrite restricts the
// recursive predicates to the demanded bindings, but the output
// relation a program asks for must be byte-identical; any divergence is
// a soundness bug in the magic-set transform.
func TestDemandDifferentialAllQueries(t *testing.T) {
	strategies := []struct {
		name string
		s    Strategy
	}{{"global", Global}, {"ssp", SSP}, {"dws", DWS}}
	all := append(queries.All(), queries.BoundTC(), queries.BoundTCRightLinear(), queries.BoundTCNonLinear(), queries.BoundSG())
	for _, q := range all {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			load, params := demandQueryData(t, q)
			bound := len(q.Params) > 0 && q.Name != "SSSP" && q.Name != "PR"
			for _, st := range strategies {
				st := st
				t.Run(st.name, func(t *testing.T) {
					base := append([]Option{WithWorkers(4), WithStrategy(st.s)}, params...)

					off := NewDatabase()
					load(off)
					offRes, err := off.Query(q.Source, append(base, WithoutDemandRewrite())...)
					if err != nil {
						t.Fatal(err)
					}
					if offRes.DemandRewritten() {
						t.Fatal("WithoutDemandRewrite run reports a rewrite")
					}

					on := NewDatabase()
					load(on)
					onRes, err := on.Query(q.Source, base...)
					if err != nil {
						t.Fatal(err)
					}
					// The bound variants must actually take the rewrite; the
					// eight paper queries must all decline (aggregates, or no
					// external bound site).
					if onRes.DemandRewritten() != bound {
						t.Fatalf("DemandRewritten() = %v, want %v", onRes.DemandRewritten(), bound)
					}
					assertSameRows(t, onRes.Rows(q.Output), offRes.Rows(q.Output))

					// Warm path: Prepare once, Exec twice; the second Exec
					// attaches memoized indexes under the rewritten program.
					warm := NewDatabase()
					load(warm)
					prep, err := warm.Prepare(q.Source, base...)
					if err != nil {
						t.Fatal(err)
					}
					if prep.DemandRewritten() != bound {
						t.Fatalf("Prepared.DemandRewritten() = %v, want %v", prep.DemandRewritten(), bound)
					}
					if _, err := prep.Exec(context.Background()); err != nil {
						t.Fatal(err)
					}
					warmRes, err := prep.Exec(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, warmRes.Rows(q.Output), offRes.Rows(q.Output))
				})
			}
		})
	}
}

// TestDemandExplainShowsMagicAndEstimates pins the EXPLAIN surface: a
// rewritten bound query names its magic predicates and the guards it
// elided, and annotates joins with cardinality estimates once the base
// is warm enough to have statistics.
func TestDemandExplainShowsMagicAndEstimates(t *testing.T) {
	q := queries.BoundTC()
	load, params := demandQueryData(t, q)
	db := NewDatabase()
	load(db)
	text, err := db.Explain(q.Source, params...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"demand rewrite: magic predicates tc__magic",
		"demand rewrite: guard tc__magic(X) elided, implied by tc(X, Z) in tc(X, Y) :- tc(X, Z), arc(Z, Y).",
		"delta rule (variant 0, outer path [1]): tc(X, Y) :- tc(X, Z), arc(Z, Y).",
		"tc__magic",
		"est~",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}

	// The opt-out must compile the original program and say why no
	// rewrite applies.
	plain, err := db.Explain(q.Source, append([]Option{WithoutDemandRewrite()}, params...)...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "tc__magic") {
		t.Errorf("WithoutDemandRewrite EXPLAIN still shows magic predicates:\n%s", plain)
	}
}
