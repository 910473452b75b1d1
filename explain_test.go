package dcdatalog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/queries"
)

// TestExplainDeclinedProgramsUnchanged pins the EXPLAIN text of unbound
// TC, CC and SSSP over a fixed graph byte for byte. The demand rewrite
// declines on all three, so neither its guard elision nor the planner's
// filter cost for an all-bound atom without statistics may move their
// plans.
func TestExplainDeclinedProgramsUnchanged(t *testing.T) {
	for _, q := range []queries.Query{queries.TC(), queries.CC(), queries.SSSP()} {
		t.Run(q.Name, func(t *testing.T) {
			load, params := paperQueryData(t, q)
			db := NewDatabase()
			load(db)
			got, err := db.Explain(q.Source, params...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "explain", q.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("EXPLAIN changed:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}
