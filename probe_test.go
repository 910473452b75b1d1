package dcdatalog

import (
	"context"
	"testing"

	"repro/internal/queries"
)

// TestBloomDifferentialAllQueries runs every paper query under each
// coordination strategy with three workers — cold, and through the
// warm prepared-base path (Prepare + two Execs, so the second Exec
// probes memoized indexes and their Bloom filters) — and requires both
// to match a two-worker run of the same strategy. Guard decisions are
// per worker join frame, taken when its warmup window closes, so
// splitting the probe stream two or three ways changes which frames
// guard, pass or stay warming. Float-valued queries (PR) compare
// within the differential suite's relative tolerance.
func TestBloomDifferentialAllQueries(t *testing.T) {
	strategies := []struct {
		name string
		s    Strategy
	}{{"global", Global}, {"ssp", SSP}, {"dws", DWS}}
	for _, q := range queries.All() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			load, params := paperQueryData(t, q)
			for _, st := range strategies {
				st := st
				t.Run(st.name, func(t *testing.T) {
					two := NewDatabase()
					load(two)
					twoRes, err := two.Query(q.Source, append([]Option{WithWorkers(2), WithStrategy(st.s)}, params...)...)
					if err != nil {
						t.Fatal(err)
					}

					opts := append([]Option{WithWorkers(3), WithStrategy(st.s)}, params...)
					cold := NewDatabase()
					load(cold)
					coldRes, err := cold.Query(q.Source, opts...)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, coldRes.Rows(q.Output), twoRes.Rows(q.Output))

					warm := NewDatabase()
					load(warm)
					prep, err := warm.Prepare(q.Source, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := prep.Exec(context.Background()); err != nil {
						t.Fatal(err)
					}
					warmRes, err := prep.Exec(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, warmRes.Rows(q.Output), twoRes.Rows(q.Output))
				})
			}
		})
	}
}

// TestProbeStatsExposed checks the probe counters ride through the
// public Stats surface.
func TestProbeStatsExposed(t *testing.T) {
	db := NewDatabase()
	db.MustDeclare("arc", Col("x", Int), Col("y", Int))
	rows := make([][]any, 0, 64)
	for i := 0; i < 63; i++ {
		rows = append(rows, []any{i, i + 1})
	}
	db.MustLoad("arc", rows)
	src := `
		tc(X, Y) :- arc(X, Y).
		tc(X, Z) :- tc(X, Y), arc(Y, Z).
	`
	res, err := db.Query(src, WithWorkers(2), WithProbeGroup(8))
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Stats().Probe
	if pc.TagProbes == 0 || pc.KeyCompares == 0 {
		t.Fatalf("probe counters not populated: %+v", pc)
	}
}
